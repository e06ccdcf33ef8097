package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// fullSize keeps the workloads' real sizes; TestMain shrinks the table.
var fullSize = append([]workload(nil), workloads...)

// TestMain runs every workload at a tiny size. The benchmark builds each
// image in a child process that is this test binary again, so a "--child"
// invocation is dispatched here, after the same shrinking.
func TestMain(m *testing.M) {
	for i := range workloads {
		w := &workloads[i]
		w.files, w.dirs = max(w.files/100, 40), max(w.dirs/100, 8)
	}
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		os.Exit(benchMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, metricName)
		}
		if !metricUnit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, metricUnit)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONDeclaresTheProgramsMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(fullSize) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(fullSize))
	}
	for i, w := range b.Workloads {
		if w.Name != fullSize[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, fullSize[i].name)
		}
	}
	for _, c := range []struct {
		mode     string
		declared []struct{ Name, Unit string }
		program  []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.declared {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.program {
			want = append(want, m.name+" "+m.unit)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: BENCHMARK.json declares %v, the program reports %v", c.mode, got, want)
		}
	}
}

// TestRecordedDigests checks digests.json against the full-size
// workloads' single-process reference at the default seed.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every full-size reference image")
	}
	var recorded map[string]string
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, w := range fullSize {
		digest, _, err := reference(context.Background(), w, defaultSeed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if recorded[w.name] != digest {
			t.Errorf("%s: recorded digest %s, reference %s", w.name, recorded[w.name], digest)
		}
	}
}

// runBench runs the whole benchmark for a second and returns its result
// line.
func runBench(t *testing.T, w workload, seed int64, trace int) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", "1", "--trace", strconv.Itoa(trace), "--out", t.TempDir()}
	if code := benchMain(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return res, stderr.String()
}

// TestWorkloadsPassTheirImageCheck runs each tiny workload through the
// whole benchmark, untraced and traced: every image passes its check, and
// each mode reports exactly its declared metric set.
func TestWorkloadsPassTheirImageCheck(t *testing.T) {
	for _, w := range workloads {
		for trace, declared := range [][]metric{endToEnd, perLayer} {
			t.Run(w.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				res, stderr := runBench(t, w, 3, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
					t.Fatalf("correct %v, %d of %d images failed:\n%s", res.Correct, res.Failed, res.Attempted, stderr)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("reported %d metrics, declared %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// TestPeakRSSIsTheImageBuildsOwn: peak_rss_mb must be the image-building
// process's own peak, not one it inherits from the benchmark process that
// starts it. The test process holds a large touched buffer while a tiny
// image is built; the tiny image's peak must stay well below it.
func TestPeakRSSIsTheImageBuildsOwn(t *testing.T) {
	const ballast = 256 << 20
	buf := make([]byte, ballast)
	for i := 0; i < len(buf); i += os.Getpagesize() {
		buf[i] = 1
	}
	if own, err := peakRSSKB(); err != nil || own*1024 < ballast {
		t.Fatalf("test process peak %d KiB (%v), want at least the %d MiB ballast", own, err, ballast>>20)
	}
	res, _ := runBench(t, workloads[0], 3, 0)
	runtime.KeepAlive(buf)
	if got := res.Metrics["peak_rss_mb"].Value; got <= 0 || got*1e6 > ballast/4 {
		t.Fatalf("tiny image peak_rss_mb %.1f, want above 0 and below %.0f MB (a quarter of the parent's ballast)", got, ballast/4/1e6)
	}
}

// TestDefaultSeedDigestMismatchFails: the tiny images differ from the
// full-size images whose digests digests.json records, so at the default
// seed every image must count as failed.
func TestDefaultSeedDigestMismatchFails(t *testing.T) {
	res, _ := runBench(t, workloads[0], defaultSeed, 0)
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("correct %v, %d of %d images failed; want all failed", res.Correct, res.Failed, res.Attempted)
	}
}
