package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"vliwq"
)

// TestInputsDeterministic: the same seed gives the same inputs byte for
// byte, and another seed gives other inputs.
func TestInputsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"cold": func(seed int64) string {
			set, warm, err := coldSet(seed, 64, 4)
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, append(set, warm...))
		},
		"batch": func(seed int64) string {
			set, warm, err := batchSet(seed, 32, 4)
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, append(set, warm...))
		},
		"warm": func(seed int64) string {
			pool, err := warmPool(seed, 16, 3)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, s := range pool {
				b.Write(s.body)
			}
			for _, i := range warmSequence(seed, pool, 3) {
				b.WriteString(string(rune('0' + i%10)))
			}
			return b.String()
		},
		"figures": func(seed int64) string {
			var b strings.Builder
			for _, l := range figuresCorpus(seed) {
				b.WriteString(vliwq.FormatLoop(l))
			}
			return b.String()
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpellingsShareStructuralKey: every generated spelling keys into its
// leader's structural class while its exact key differs, and permuted
// spellings really reorder statements.
func TestSpellingsShareStructuralKey(t *testing.T) {
	pool, err := warmPool(3, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[int]int{}
	canon := map[string]bool{}
	for i, s := range pool {
		kinds[s.kind]++
		if canon[s.req.Canonical()] {
			t.Errorf("spelling %d repeats another spelling's canonical key", i)
		}
		canon[s.req.Canonical()] = true
		lead := pool[s.class]
		if lead.kind != spellExact {
			t.Fatalf("spelling %d: class %d is not a leader", i, s.class)
		}
		if s.kind == spellExact {
			continue
		}
		if s.req.StructuralKey() != lead.req.StructuralKey() {
			t.Errorf("spelling %d: structural key differs from its leader's", i)
		}
		if s.kind == spellPermuted && !alignable(lead.req, s.req.Loop) {
			t.Errorf("spelling %d: permuted spelling does not align onto its leader", i)
		}
	}
	if kinds[spellExact] != 32 || kinds[spellRenamed] != 32*4 || kinds[spellPermuted] != 32*4 {
		t.Errorf("spelling kinds = %v, want 32 leaders, 128 renamed, 128 permuted", kinds)
	}
}

// TestMetricNames: every metric has a well-formed, unique name and a unit,
// and BENCHMARK.json lists exactly the metrics the program reports.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is malformed", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is malformed", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s is listed twice", m.name)
		}
		seen[m.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no driver", w.Name)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program drives %d", len(spec.Work), len(workloads))
	}
}

// TestTinyRuns: a short run of every workload, untraced and traced,
// completes with every output check passing.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "1", "--seconds", "0.3", "--trace", trace,
				"--testdata", "testdata", "--trace-out", t.TempDir()}, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || code != 0 {
				t.Errorf("%s trace %s: exit %d, err %v\n%s\n%s", w, trace, code, err, out.String(), errOut.String())
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: %d of %d outputs failed (error_rate %g)\n%s",
					w, trace, res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted), out.String())
			}
		}
	}
}

// TestWarmSequenceShares: a warm-gateway round sends the three read paths
// in equal shares, and every renamed and permuted spelling exactly once.
func TestWarmSequenceShares(t *testing.T) {
	pool, err := warmPool(5, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := warmSequence(5, pool, 3)
	sent := map[int]int{}
	kinds := map[int]int{}
	for _, i := range seq {
		sent[i]++
		kinds[pool[i].kind]++
	}
	if kinds[spellExact] != 48 || kinds[spellRenamed] != 48 || kinds[spellPermuted] != 48 {
		t.Errorf("round mix = %v, want 48 of each kind", kinds)
	}
	for i, s := range pool {
		if s.kind != spellExact && sent[i] != 1 {
			t.Errorf("spelling %d (kind %d) sent %d times in a round, want once", i, s.kind, sent[i])
		}
	}
}
