package estimator

import "testing"

// TestModeStringGolden pins the wire vocabulary: these strings appear in
// CLI flags, scenario JSON and reports, so renaming one is a compatibility
// break, not a refactor.
func TestModeStringGolden(t *testing.T) {
	golden := map[Mode]string{
		ModeMemoryless:  "memoryless",
		ModeExponential: "exponential",
		ModeWindow:      "window",
		ModeAggregate:   "aggregate",
		ModeOracle:      "oracle",
	}
	for m, want := range golden {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	if got := Mode(99).String(); got != "Mode(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for m := ModeMemoryless; m < modeEnd; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus input")
	}
	if _, err := ParseMode(""); err == nil {
		t.Error("ParseMode accepted empty input")
	}
}

// TestNewBuildsEachMode pins the shared constructor: the family each mode
// names, the memory it is built with, the aggregate estimator's 8·tick
// variance memory when no T_m is given, and the oracle's declared
// statistics.
func TestNewBuildsEachMode(t *testing.T) {
	for m := ModeMemoryless; m < modeEnd; m++ {
		want := m.String()
		if m == ModeAggregate {
			want = "aggregate-only"
		}
		if got := New(m, 2, 0.5, 1, 0.3).Name(); got != want {
			t.Errorf("New(%v).Name() = %q, want %q", m, got, want)
		}
	}
	if e := New(ModeExponential, 2, 0.5, 1, 0.3).(*Exponential); e.Memory() != 2 {
		t.Errorf("exponential memory %g, want 2", e.Memory())
	}
	if e := New(ModeAggregate, 0, 0.5, 1, 0.3).(*AggregateOnly); e.Tm != 0 || e.Tv != 4 {
		t.Errorf("aggregate Tm %g Tv %g, want 0 and 8·tick = 4", e.Tm, e.Tv)
	}
	if e := New(ModeAggregate, 3, 0.5, 1, 0.3).(*AggregateOnly); e.Tm != 3 || e.Tv != 3 {
		t.Errorf("aggregate Tm %g Tv %g, want 3 and 3", e.Tm, e.Tv)
	}
	if mu, sigma, ok := New(ModeOracle, 0, 0.5, 2, 0.7).Estimate(); mu != 2 || sigma != 0.7 || !ok {
		t.Errorf("oracle estimate (%g, %g, %v), want the declared (2, 0.7)", mu, sigma, ok)
	}
}
