package platform

import "testing"

// TestPowerTableMatchesPlatform: every table entry is the platform's
// own power function, bit for bit, for every level and level pair —
// so pricing through the table changes no output.
func TestPowerTableMatchesPlatform(t *testing.T) {
	for _, p := range []*Platform{ODROIDXU3A7(), IntelI7(), BigLITTLE(), ODROIDXU3A15()} {
		pt := NewPowerTable(p)
		for i, l := range p.Levels {
			if pt.Active(i) != p.ActivePower(l) || pt.active[i] != p.ActivePower(l) {
				t.Errorf("%s level %d: active %v, want %v", p.Name, i, pt.active[i], p.ActivePower(l))
			}
			if pt.idle[i] != p.IdlePower(l) {
				t.Errorf("%s level %d: idle %v, want %v", p.Name, i, pt.idle[i], p.IdlePower(l))
			}
			for j, to := range p.Levels {
				if pt.sw[i][j] != p.SwitchPower(l, to) {
					t.Errorf("%s switch %d→%d: %v, want %v", p.Name, i, j, pt.sw[i][j], p.SwitchPower(l, to))
				}
			}
		}
		top := p.ActivePower(p.MaxLevel())
		if pt.Active(-1) != top || pt.Active(p.NumLevels()) != top {
			t.Errorf("%s: out-of-range levels price %v/%v, want the top level's %v",
				p.Name, pt.Active(-1), pt.Active(p.NumLevels()), top)
		}
	}
}

// TestPowerTableByName: each ByName platform has one shared table equal
// to a fresh one; other names have none.
func TestPowerTableByName(t *testing.T) {
	for _, name := range []string{"a7", "x86", "biglittle"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pt, ok := PowerTableByName(name)
		if !ok {
			t.Fatalf("no table for %q", name)
		}
		if again, _ := PowerTableByName(name); again != pt {
			t.Errorf("%q: two lookups returned different tables", name)
		}
		fresh := NewPowerTable(p)
		for i := range fresh.active {
			if pt.active[i] != fresh.active[i] || pt.idle[i] != fresh.idle[i] {
				t.Errorf("%q level %d: shared table differs from a fresh one", name, i)
			}
		}
	}
	for _, name := range []string{"", "nope", "odroid-xu3-a7"} {
		if _, ok := PowerTableByName(name); ok {
			t.Errorf("PowerTableByName(%q) found a table", name)
		}
	}
}

func TestTimelineIdle(t *testing.T) {
	p := ODROIDXU3A7()
	pt := NewPowerTable(p)
	idle3 := p.IdlePower(p.Levels[3])

	tl := Timeline{Now: 1}
	if j := tl.IdleUntil(pt, 0.5, 3); j != 0 || tl.Now != 1 || tl.IdleJ != 0 {
		t.Fatalf("t < Now: charged %v, clock %v", j, tl.Now)
	}
	if j := tl.IdleUntil(pt, 1, 3); j != 0 || tl.Now != 1 {
		t.Fatalf("t == Now: charged %v, clock %v", j, tl.Now)
	}
	// A gap of at most 1e-12 s is round-off: the clock moves, nothing
	// is charged.
	tiny := 1 + 5e-13
	if j := tl.IdleUntil(pt, tiny, 3); j != 0 || tl.Now != tiny || tl.IdleJ != 0 {
		t.Fatalf("tiny gap: charged %v, clock %v", j, tl.Now)
	}
	j := tl.IdleUntil(pt, 3, 3)
	if want := idle3 * (3 - tiny); j != want || tl.IdleJ != want || tl.Now != 3 {
		t.Fatalf("gap: charged %v (total %v, clock %v), want %v", j, tl.IdleJ, tl.Now, want)
	}
	// Out-of-range levels clamp to the top level.
	top := p.IdlePower(p.MaxLevel())
	if j := tl.IdleUntil(pt, 4, 99); j != top {
		t.Fatalf("clamped idle = %v, want %v", j, top)
	}
}

// TestTimelineJob: predictor at from, then the transition, then
// execution at to, with the clock advanced segment by segment.
func TestTimelineJob(t *testing.T) {
	p := ODROIDXU3A7()
	pt := NewPowerTable(p)
	from, to := p.Levels[2], p.Levels[7]
	tl := Timeline{Now: 0.25}
	c := tl.Job(pt, 2, 7, 0.001, 0.002, 0.05)
	want := Breakdown{
		PredictorJ: p.ActivePower(from) * 0.001,
		SwitchJ:    p.SwitchPower(from, to) * 0.002,
		ExecJ:      p.ActivePower(to) * 0.05,
	}
	if c != want || tl.Breakdown != want {
		t.Fatalf("charge %+v (accumulated %+v), want %+v", c, tl.Breakdown, want)
	}
	if clock := ((0.25 + 0.001) + 0.002) + 0.05; tl.Now != clock {
		t.Fatalf("clock %v, want %v", tl.Now, clock)
	}

	// Non-positive segments charge nothing and leave the clock alone.
	before := tl
	if c := tl.Job(pt, 2, 7, 0, -1, 0); c != (Breakdown{}) || tl != before {
		t.Fatalf("empty job charged %+v, timeline %+v", c, tl)
	}

	// Out-of-range levels clamp to the top on both ends.
	var clamp Timeline
	c = clamp.Job(pt, -4, 42, 1, 1, 1)
	topP := p.ActivePower(p.MaxLevel())
	if c.PredictorJ != topP || c.ExecJ != topP || c.SwitchJ != p.SwitchPower(p.MaxLevel(), p.MaxLevel()) {
		t.Fatalf("clamped job charged %+v", c)
	}
}

func TestTimelineDrain(t *testing.T) {
	p := ODROIDXU3A7()
	pt := NewPowerTable(p)
	tl := Timeline{Now: 2}
	tl.Drain(pt, 1, 0)
	if tl.Now != 2 || tl.IdleJ != 0 {
		t.Fatalf("drain into the past: %+v", tl)
	}
	// Unlike an idle gap, the drain charges any positive remainder.
	h := 2 + 1e-13
	tl.Drain(pt, h, 5)
	if want := p.IdlePower(p.Levels[5]) * (h - 2); tl.IdleJ != want || tl.Now != h {
		t.Fatalf("drain charged %v (clock %v), want %v", tl.IdleJ, tl.Now, want)
	}
	if tl.Total() != tl.IdleJ {
		t.Fatalf("total %v, want the idle %v", tl.Total(), tl.IdleJ)
	}
}
