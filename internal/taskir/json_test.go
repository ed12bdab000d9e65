package taskir

import (
	"math/rand"
	"strings"
	"testing"
)

// Round-tripping a program through the JSON codec must preserve it
// exactly — Format covers every field the interpreter reads, so text
// equality is behavioural equality.
func TestJSONRoundTripRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		p := RandomProgram(rng)
		data, err := MarshalProgram(p)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		q, err := UnmarshalProgram(data)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if Format(p) != Format(q) {
			t.Fatalf("trial %d: round trip changed the program\nbefore:\n%s\nafter:\n%s",
				trial, Format(p), Format(q))
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: decoded program invalid: %v", trial, err)
		}
	}
}

func TestJSONRoundTripPreservesBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := RandomProgram(rng)
	data, err := MarshalProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"p0": 3, "p1": -2, "p2": 9}
	run := func(prog *Program) (Work, map[string]int64) {
		globals := map[string]int64{"g0": 1, "g1": 4}
		env := NewEnv(globals)
		env.SetParams(params)
		w, err := Run(prog, env, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return w, globals
	}
	w1, g1 := run(p)
	w2, g2 := run(q)
	if w1 != w2 {
		t.Fatalf("work diverged: %+v vs %+v", w1, w2)
	}
	for k, v := range g1 {
		if g2[k] != v {
			t.Fatalf("global %s diverged: %d vs %d", k, v, g2[k])
		}
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"{",
		`{"name":"x","body":[{"kind":"teleport"}]}`,
	} {
		if _, err := UnmarshalProgram([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// Satellite of the read-tracking hook: Env.GetChecked distinguishes a
// real zero from an undefined read, and TrackReads records the names.
func TestGetCheckedAndTrackReads(t *testing.T) {
	env := NewEnv(map[string]int64{"g": 0})
	env.TrackReads()
	if v, ok := env.GetChecked("g"); !ok || v != 0 {
		t.Errorf("GetChecked(g) = %d,%v, want 0,true", v, ok)
	}
	if v, ok := env.GetChecked("ghost"); ok || v != 0 {
		t.Errorf("GetChecked(ghost) = %d,%v, want 0,false", v, ok)
	}
	env.Set("late", 1)
	env.Get("late")    // defined: not recorded
	env.Get("phantom") // undefined: recorded
	env.Get("phantom") // recorded once
	got := env.UndefinedReads()
	want := "ghost,phantom"
	if strings.Join(got, ",") != want {
		t.Errorf("UndefinedReads = %v, want [%s]", got, want)
	}
}

// Without TrackReads the env must not accumulate anything.
func TestUndefinedReadsUntracked(t *testing.T) {
	env := NewEnv(nil)
	env.Get("nowhere")
	if got := env.UndefinedReads(); len(got) != 0 {
		t.Errorf("untracked env recorded %v", got)
	}
}
