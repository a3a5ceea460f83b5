package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// minimal returns a valid churn scenario that individual cases then break.
func minimal() string {
	return `{
		"name": "t", "seeds": [1],
		"workload": {"kind": "churn", "lambda": 1, "hold": 5, "duration": 10, "svr": 0.3},
		"gateway": {"capacity": 10, "pq": 0.01},
		"arms": [{"name": "a", "policy": "certainty-equivalent"}],
		"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}
	}`
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the positional error
	}{
		{"unknown-top-field", `{"name": "t", "bogus": 1}`, `"bogus"`},
		{"trailing-document", minimal() + `{}`, "trailing data"},
		{"nan-rate", strings.Replace(minimal(), `"lambda": 1`, `"lambda": NaN`, 1), "invalid character"},
		{"inf-via-exponent", strings.Replace(minimal(), `"lambda": 1`, `"lambda": 1e999`, 1), "workload.lambda"},
		{"negative-hold", strings.Replace(minimal(), `"hold": 5`, `"hold": -5`, 1), "workload.hold: -5 must be positive"},
		{"no-seeds", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": []`, 1), "at least one seed"},
		{"dup-seeds", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": [1, 1]`, 1), "seeds[1]: duplicate seed"},
		{"unknown-target", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": [1], "target": "carrier-pigeon"`, 1), `unknown substrate "carrier-pigeon"`},
		{"unknown-policy", strings.Replace(minimal(), `"policy": "certainty-equivalent"`, `"policy": "vibes"`, 1), `arms[0].policy: unknown policy "vibes"`},
		{"unknown-estimator", strings.Replace(minimal(), `"pq": 0.01`, `"pq": 0.01, "estimator": "psychic"`, 1), `unknown estimator "psychic"`},
		{"unknown-verdict", strings.Replace(minimal(), `"name": "t"`, `"name": "t", "expect": "Shrug"`, 1), `"Shrug"`},
		{"unknown-fault-mode", strings.Replace(minimal(), `"seeds": [1]`, `"seeds": [1], "faults": [{"mode": "gremlins", "from": 1, "to": 2}]`, 1), "faults[0]"},
		{"impulsive-with-churn-fields", `{
			"name": "t", "seeds": [1],
			"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3, "lambda": 1},
			"gateway": {"capacity": 10, "pq": 0.01},
			"arms": [{"name": "a", "policy": "certainty-equivalent"}],
			"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle"]}}
		}`, "churn fields"},
		{"network-needs-churn", `{
			"name": "t", "seeds": [1], "target": "network",
			"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3},
			"gateway": {"capacity": 10, "pq": 0.01},
			"arms": [{"name": "a", "policy": "certainty-equivalent"}],
			"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle"]}}
		}`, "network substrate requires a churn workload"},
		{"two-hypotheses", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}, "invariant": {"checks": ["lifecycle"]}}`, 1),
			"exactly one of"},
		{"substrate-identity-in-process", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"checks": ["substrate-identity"]}}`, 1),
			"substrate-identity requires the network target"},
		{"empty-invariant", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {}}`, 1),
			"at least one check or bound"},
		{"bound-nonpositive-ceiling", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"bounds": [{"metric": "admitted", "at_most": 0}]}}`, 1),
			"bounds[0].at_most"},
		{"served-metric-in-process", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"bounds": [{"metric": "served-p99", "at_most": 0.05}]}}`, 1),
			"served-p99 requires the network target"},
		{"nested-mixture", strings.Replace(minimal(),
			`"svr": 0.3`,
			`"model": {"kind": "mixture", "mix": [
				{"weight": 1, "model": {"kind": "mixture", "mix": []}},
				{"weight": 1, "model": {"kind": "constant", "rate": 1}}
			]}`, 1),
			"mixtures do not nest"},
		{"cluster-of-one", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 1}`, 1),
			"cluster.instances: 1 must be at least 2"},
		{"cluster-unknown-policy", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "policy": "dartboard"}`, 1),
			"cluster.policy"},
		{"cluster-drain-outside-schedule", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "drain_at": 10}`, 1),
			"cluster.drain_at"},
		{"cluster-drain-instance-range", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "drain_at": 5, "drain_instance": 3}`, 1),
			"cluster.drain_instance: 3 out of range"},
		{"cluster-with-faults", strings.Replace(minimal(),
			`"gateway": {"capacity": 10, "pq": 0.01}`,
			`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3}, "faults": [{"mode": "nan", "from": 1, "to": 2}]`, 1),
			"fault windows are not supported with a cluster topology"},
		{"migrated-flows-without-cluster", strings.Replace(minimal(),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "invariant", "invariant": {"checks": ["migrated-flows"]}}`, 1),
			"migrated-flows requires a cluster topology"},
		{"memoryless-with-memory", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "memory": 5`, 1),
			"gateway.memory: not valid for the memoryless estimator"},
		{"aggregate-negative-memory", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "estimator": "aggregate", "memory": -1`, 1),
			"gateway.memory: -1 must be non-negative"},
		{"th-without-adaptive", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "th": 5`, 1),
			"gateway.th: only valid with adaptive measurement"},
		{"adaptive-needs-retunable", strings.Replace(minimal(),
			`"pq": 0.01`, `"pq": 0.01, "adaptive": true`, 1),
			"adaptive measurement requires a retunable estimator"},
		{"adaptive-needs-churn", `{
			"name": "t", "seeds": [1],
			"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3},
			"gateway": {"capacity": 10, "pq": 0.01, "estimator": "aggregate", "adaptive": true},
			"arms": [{"name": "a", "policy": "certainty-equivalent"}],
			"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle"]}}
		}`, "adaptive measurement requires a churn workload"},
		{"arm-unknown-estimator", strings.Replace(minimal(),
			`"policy": "certainty-equivalent"`,
			`"policy": "certainty-equivalent", "estimator": "psychic"`, 1),
			`arms[0].estimator: unknown estimator "psychic"`},
		{"arm-memory-on-memoryless", strings.Replace(minimal(),
			`"policy": "certainty-equivalent"`,
			`"policy": "certainty-equivalent", "memory": 5`, 1),
			"arms[0].memory: not valid for the memoryless estimator"},
		{"shift-outside-schedule", strings.Replace(minimal(),
			`"svr": 0.3`,
			`"svr": 0.3, "shift": {"at": 20, "model": {"kind": "rcbr", "svr": 0.3}}`, 1),
			"workload.shift.at: 20 must fall inside the schedule"},
		{"shift-bad-model", strings.Replace(minimal(),
			`"svr": 0.3`,
			`"svr": 0.3, "shift": {"at": 5, "model": {"kind": "tarot"}}`, 1),
			`workload.shift.model.kind: unknown model "tarot"`},
		{"impulsive-with-shift", `{
			"name": "t", "seeds": [1],
			"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3,
				"shift": {"at": 5, "model": {"kind": "constant", "rate": 1}}},
			"gateway": {"capacity": 10, "pq": 0.01},
			"arms": [{"name": "a", "policy": "certainty-equivalent"}],
			"check": {"kind": "invariant", "invariant": {"checks": ["lifecycle"]}}
		}`, "churn fields"},
		{"masking-needs-churn", `{
			"name": "t", "seeds": [1],
			"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3},
			"gateway": {"capacity": 10, "pq": 0.01},
			"arms": [{"name": "a", "policy": "certainty-equivalent"}],
			"check": {"kind": "interval", "interval": {"reference": "masking", "mode": "covers"}}
		}`, "masking reference requires a churn workload"},
		{"masking-with-value", strings.Replace(minimal(),
			`{"reference": "pq", "mode": "at-most"}`,
			`{"reference": "masking", "mode": "covers", "value": 0.5}`, 1),
			`interval.value: only valid with reference "value"`},
		{"grade-after-outside-schedule", strings.Replace(minimal(),
			`{"reference": "pq", "mode": "at-most"}`,
			`{"reference": "pq", "mode": "at-most", "grade_after": 10}`, 1),
			"grade_after: 10 must fall inside the schedule"},
		{"grade-after-negative", strings.Replace(minimal(),
			`{"reference": "pq", "mode": "at-most"}`,
			`{"reference": "pq", "mode": "at-most", "grade_after": -1}`, 1),
			"check.interval.grade_after"},
		{"grade-after-needs-churn", `{
			"name": "t", "seeds": [1],
			"workload": {"kind": "impulsive", "replications": 10, "svr": 0.3},
			"gateway": {"capacity": 10, "pq": 0.01},
			"arms": [{"name": "a", "policy": "certainty-equivalent"}],
			"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most", "grade_after": 5}}
		}`, "grade_after: requires a churn workload"},
		{"dominance-unknown-arm", strings.Replace(strings.Replace(minimal(),
			`"arms": [{"name": "a", "policy": "certainty-equivalent"}]`,
			`"arms": [{"name": "a", "policy": "certainty-equivalent"}, {"name": "b", "policy": "peak-rate", "peak": 2}]`, 1),
			`"check": {"kind": "interval", "interval": {"reference": "pq", "mode": "at-most"}}`,
			`"check": {"kind": "dominance", "dominance": {"metric": "admitted", "a": "a", "b": "ghost", "relation": "greater"}}`, 1),
			`dominance.b: unknown arm "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseDefaultsIdempotent(t *testing.T) {
	cfg, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Target != TargetInProcess || cfg.Workload.Tick != 0.5 || cfg.Workload.TC != 1 ||
		cfg.Gateway.Estimator != "memoryless" || cfg.Check.Interval.Z != 1.96 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Marshal of the validated config re-parses to the identical value.
	out, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(out)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(cfg, again) {
		t.Fatalf("round-trip drift:\nfirst  %+v\nsecond %+v", cfg, again)
	}
}

// TestEffectiveGateway pins the arm-override merge: estimator overrides
// reset the inherited memory, memory overrides apply on top of whichever
// estimator is in effect, and adaptive toggles independently.
func TestEffectiveGateway(t *testing.T) {
	cfg, err := Parse([]byte(`{
		"name": "t", "seeds": [1],
		"workload": {"kind": "churn", "lambda": 1, "hold": 5, "duration": 10, "svr": 0.3},
		"gateway": {"capacity": 10, "pq": 0.01, "estimator": "window", "memory": 5, "adaptive": true},
		"arms": [
			{"name": "inherit", "policy": "certainty-equivalent"},
			{"name": "fixed", "policy": "certainty-equivalent", "memory": 0.5, "adaptive": false},
			{"name": "agg", "policy": "certainty-equivalent", "estimator": "aggregate"}
		],
		"check": {"kind": "interval", "interval": {"reference": "masking", "mode": "covers"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	inherit := cfg.effectiveGateway(cfg.Arms[0])
	if inherit.Estimator != "window" || inherit.Memory != 5 || !inherit.Adaptive {
		t.Fatalf("inherit arm drifted from the base spec: %+v", inherit)
	}
	fixed := cfg.effectiveGateway(cfg.Arms[1])
	if fixed.Estimator != "window" || fixed.Memory != 0.5 || fixed.Adaptive {
		t.Fatalf("fixed arm overrides not applied: %+v", fixed)
	}
	agg := cfg.effectiveGateway(cfg.Arms[2])
	if agg.Estimator != "aggregate" || agg.Memory != 0 || !agg.Adaptive {
		t.Fatalf("estimator override must reset inherited memory: %+v", agg)
	}
}

// TestShippedScenariosParse locks the built-in suite to the strict decoder:
// every file under scenarios/ must load, and its marshaled form must
// re-parse to the same value.
func TestShippedScenariosParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("expected at least 8 built-in scenarios, found %d", len(paths))
	}
	for _, p := range paths {
		cfg, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Errorf("%s: marshal: %v", p, err)
			continue
		}
		again, err := Parse(out)
		if err != nil {
			t.Errorf("%s: round-trip parse: %v", p, err)
			continue
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Errorf("%s: round-trip drift", p)
		}
	}
}

// TestEnumRoundTrips: every enum value survives String -> Parse and JSON
// marshal -> unmarshal.
func TestEnumRoundTrips(t *testing.T) {
	for v := Inconclusive; v < verdictEnd; v++ {
		got, err := verdictNames.Parse(v.String())
		if err != nil || got != v {
			t.Errorf("Verdict %d: %v %v", v, got, err)
		}
	}
	for k := HypDominance; k < hypothesisKindEnd; k++ {
		got, err := hypothesisKindNames.Parse(k.String())
		if err != nil || got != k {
			t.Errorf("HypothesisKind %d: %v %v", k, got, err)
		}
	}
	for k := InvLifecycle; k < invariantKindEnd; k++ {
		got, err := invariantKindNames.Parse(k.String())
		if err != nil || got != k {
			t.Errorf("InvariantKind %d: %v %v", k, got, err)
		}
	}
	for m := MetricAdmitted; m < metricEnd; m++ {
		got, err := metricNames.Parse(m.String())
		if err != nil || got != m {
			t.Errorf("Metric %d: %v %v", m, got, err)
		}
	}
	for r := RelGreater; r < relationEnd; r++ {
		got, err := relationNames.Parse(r.String())
		if err != nil || got != r {
			t.Errorf("Relation %d: %v %v", r, got, err)
		}
	}
	for m := IntervalCovers; m < intervalModeEnd; m++ {
		got, err := intervalModeNames.Parse(m.String())
		if err != nil || got != m {
			t.Errorf("IntervalMode %d: %v %v", m, got, err)
		}
	}
	// JSON round-trip through a struct field (exercises Marshal/Unmarshal).
	var h Hypothesis
	h.Kind = HypInterval
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hypothesis
	if err := json.Unmarshal(data, &back); err != nil || back.Kind != HypInterval {
		t.Fatalf("Hypothesis kind JSON round-trip: %v %v", back.Kind, err)
	}
}

// FuzzScenarioConfig throws arbitrary bytes at the strict decoder: Parse
// must never panic, and any config it accepts must survive a
// marshal -> re-parse round trip unchanged (defaults are idempotent).
func FuzzScenarioConfig(f *testing.F) {
	f.Add([]byte(minimal()))
	f.Add([]byte(`{"name": "x"}`))
	f.Add([]byte(`{"workload": {"kind": "impulsive", "replications": -1}}`))
	f.Add([]byte(`not json`))
	// Empty replication/arm axes must be rejected at decode time — an
	// accepted config with either would grade vacuously.
	f.Add([]byte(strings.Replace(minimal(), `"seeds": [1]`, `"seeds": []`, 1)))
	f.Add([]byte(`{"name": "x", "seeds": [1], "arms": []}`))
	f.Add([]byte(`{"name": "x", "seeds": []}`))
	// Cluster topology: valid fleet, and the degenerate cluster of one.
	f.Add([]byte(strings.Replace(minimal(),
		`"gateway": {"capacity": 10, "pq": 0.01}`,
		`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 3, "drain_at": 5}`, 1)))
	f.Add([]byte(strings.Replace(minimal(),
		`"gateway": {"capacity": 10, "pq": 0.01}`,
		`"gateway": {"capacity": 10, "pq": 0.01}, "cluster": {"instances": 1}`, 1)))
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config failed to marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled form of an accepted config was rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round-trip drift:\nin  %s\nout %s", data, out)
		}
	})
}
