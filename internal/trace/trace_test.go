package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/sim"
)

func sample() *sim.Result {
	return &sim.Result{
		Workload:  "ldecode",
		Governor:  "prediction",
		BudgetSec: 0.05,
		EnergyJ:   1.25, SensorEnergyJ: 1.24, DurationSec: 15, Misses: 1,
		Records: []sim.JobRecord{
			{Index: 0, ReleaseSec: 0, EndSec: 0.02, DeadlineSec: 0.05,
				LevelIdx: 7, PredictedExecSec: 0.021,
				Outcome: governor.Outcome{StartSec: 0, PredictorSec: 0.0003, SwitchSec: 0.0008, ExecSec: 0.019}},
			{Index: 1, ReleaseSec: 0.05, EndSec: 0.12, DeadlineSec: 0.10,
				LevelIdx: 12, PredictedExecSec: math.NaN(),
				Outcome: governor.Outcome{StartSec: 0.05, ExecSec: 0.07, Missed: true}},
		},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 records
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][0] != "job" || len(rows[0]) != 11 {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][6] != "7" {
		t.Errorf("level field = %q, want 7", rows[1][6])
	}
	if rows[2][5] != "true" {
		t.Errorf("missed field = %q, want true", rows[2][5])
	}
	// NaN prediction serializes as empty.
	if rows[2][10] != "" {
		t.Errorf("NaN prediction = %q, want empty", rows[2][10])
	}
	if !strings.HasPrefix(rows[1][10], "0.021") {
		t.Errorf("prediction = %q", rows[1][10])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Workload != "ldecode" || s.Governor != "prediction" {
		t.Errorf("summary = %+v", s)
	}
	if s.Jobs != 2 || s.Misses != 1 || math.Abs(s.MissRate-0.5) > 1e-12 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.EnergyJ != 1.25 {
		t.Errorf("energy = %g", s.EnergyJ)
	}
}
