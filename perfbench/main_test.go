package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json the self-check compares
// against.
type benchmarkDoc struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
	Workloads []struct {
		Name string
	} `json:"workloads"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func loadBenchmarkDoc(t *testing.T) *benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

// runToy runs one toy-size invocation and returns its output, its exit
// code and the parsed result line (nil when none was printed).
func runToy(t *testing.T, workload, traceFlag string, extra ...string) (string, int, *resultLine) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "1", "--seconds", "0.5",
		"--trace", traceFlag, "--size", "toy", "--workdir", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("stderr: %s", stderr.String())
		return out, code, nil
	}
	return out, code, &res
}

var digestLine = regexp.MustCompile(`(?m)^digest ([0-9a-f]{64})$`)

// TestToyWorkloads runs every workload at toy size in both modes and
// checks the result contract: the run is correct, the final line carries
// exactly BENCHMARK.json's metric set with its units, and every metric
// is also printed by name with its unit.
func TestToyWorkloads(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %d", names, len(workloads))
	}
	sets := map[string][]struct{ Name, Unit string }{"0": nil, "1": nil}
	for _, m := range doc.EndToEnd {
		sets["0"] = append(sets["0"], struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		sets["1"] = append(sets["1"], struct{ Name, Unit string }{m.Name, m.Unit})
	}
	for _, w := range names {
		for _, tf := range []string{"0", "1"} {
			t.Run(w+"/trace"+tf, func(t *testing.T) {
				out, code, res := runToy(t, w, tf)
				if code != 0 || res == nil {
					t.Fatalf("exit %d, result %v\n%s", code, res, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := sets[tf]
				if len(res.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing from the result line", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(out) {
						t.Errorf("metric %s is not printed with its unit", m.Name)
					}
				}
				if !strings.Contains(out, "metric error_rate ") {
					t.Error("error_rate is not printed")
				}
				if !digestLine.MatchString(out) {
					t.Error("no digest printed")
				}
			})
		}
	}
}

// TestWrongDigestFails checks that a run whose outputs differ from the
// recorded digest fails: with the toy seed-1 entry of digests.json
// corrupted, every workload exits 1 with correct=false and a FAIL line.
func TestWrongDigestFails(t *testing.T) {
	var golden map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenDigestsJSON, &golden); err != nil {
		t.Fatal(err)
	}
	saved := goldenDigestsJSON
	t.Cleanup(func() { goldenDigestsJSON = saved })
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			digest, ok := golden["toy"][w]["1"]
			if !ok {
				t.Fatalf("digests.json records no toy seed-1 digest for %s", w)
			}
			wrong := []byte(digest)
			wrong[0] = '0'
			if digest[0] == '0' {
				wrong[0] = '1'
			}
			corrupted := map[string]map[string]map[string]string{"toy": {w: {"1": string(wrong)}}}
			raw, err := json.Marshal(corrupted)
			if err != nil {
				t.Fatal(err)
			}
			goldenDigestsJSON = raw
			out, code, res := runToy(t, w, "0")
			if code != 1 || res == nil || res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted digest not caught: exit %d, result %+v\n%s", code, res, out)
			}
			if !strings.Contains(out, "FAIL digest "+digest+" differs from the recorded "+string(wrong)) {
				t.Errorf("no FAIL line names the digest mismatch\n%s", out)
			}
		})
	}
}

// TestUnknownFlagsFail checks that bad invocations exit 2 without a
// result line.
func TestUnknownFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "feedback", "--trace", "2"},
		{"--workload", "feedback", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
