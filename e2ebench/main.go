// Command e2ebench is the repository's end-to-end benchmark. For one named
// workload it drives the whole image pipeline in-process — spec → plan →
// per-shard decode → shard execute → merge/stitch — checks every image it
// builds against a single-process reference, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"files_per_s": {"value": 16234.5, "unit": "1/s"}, ...}}
//
// Run it from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload smallfiles-tar --seed 1 --seconds 20 --trace 0
//
// The load is a closed loop with one client, like a user running
// impressions: each iteration builds one image in a fresh child process
// (so neither heap nor peak RSS carries from one image to the next), the
// next starts only after it has ended, and its output is removed in
// between. Shards run one after another, each with nproc workers.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced iterations: the traced ones time every call into a layer's
// public function from outside and derive the per-layer metrics from those
// spans, which are also written as Chrome trace-event JSON; the untraced
// ones give the tracing overhead. It also measures the box's ceilings
// (memmove, sha256, sequential write to the output file system).
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose canonical image digests are recorded in
// digests.json: a run at this seed that builds a different image fails, so
// a change to the generated image cannot pass as a speed-up.
const defaultSeed = 1

//go:embed digests.json
var recordedDigests []byte

// childTimeout bounds one image build (a few seconds normally); with the
// loop's grace period it keeps a run well inside 180 s.
const childTimeout = 60 * time.Second

func main() {
	os.Exit(benchMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func benchMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", defaultSeed, "workload seed")
		seconds = fs.Int("seconds", 20, "how long to keep building images")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		out     = fs.String("out", ".bench_out", "directory for images and traces")
		child   = fs.String("child", "", "internal: build one image in this directory and print its measurements")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "e2ebench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "e2ebench: --seconds must be at least 1\n")
		return 2
	}
	if *child != "" {
		return childMain(ctx, w, *seed, *child, *trace == 1, stdout)
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if err := runBenchmark(ctx, opts, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// childMain builds one image in dir and prints its measurements as JSON.
func childMain(ctx context.Context, w workload, seed int64, dir string, traced bool, stdout io.Writer) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	it, err := runIteration(ctx, w, seed, dir, tr)
	if err != nil {
		it = &iteration{Error: err.Error()}
	}
	if err := json.NewEncoder(stdout).Encode(it); err != nil {
		return 1
	}
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is one finished iteration as the parent saw it.
type measured struct {
	it     *iteration
	setup  float64 // seconds from starting the process to its timed region
	traced bool
}

func runBenchmark(ctx context.Context, o options, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "e2ebench: workload %s, seed %d, %d s, trace %v; output on %s (%s)\n",
		o.workload.name, o.seed, o.seconds, o.trace, o.out, filesystemName(o.out))

	// The reference is computed before any timed run and is not set-up.
	refDigest, refArchive, err := reference(ctx, o.workload, o.seed, o.out)
	if err != nil {
		return fmt.Errorf("reference image: %w", err)
	}
	var mismatch error
	if o.seed == defaultSeed {
		var recorded map[string]string
		if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
			return fmt.Errorf("digests.json: %w", err)
		}
		if recorded[o.workload.name] != refDigest {
			mismatch = fmt.Errorf("image digest %s differs from the digest recorded for seed %d, %s", refDigest, defaultSeed, recorded[o.workload.name])
			fmt.Fprintf(stderr, "e2ebench: %v\n", mismatch)
		}
	}
	fmt.Fprintf(stdout, "reference digest: sha256:%s\n", refDigest)

	origin := newTracer()
	if o.trace {
		if err := measureCeilings(origin, o.out); err != nil {
			return fmt.Errorf("ceilings: %w", err)
		}
	}

	var (
		done   []measured
		failed int
	)
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= time.Duration(o.seconds)*time.Second && enough(done, len(done)+failed, o.trace) {
			break
		}
		if elapsed >= time.Duration(o.seconds)*time.Second+30*time.Second {
			break // the run must end within its time limit even if builds keep failing
		}
		traced := o.trace && i%2 == 1
		m, err := buildImage(ctx, exe, o, traced, filepath.Join(o.out, "image-"+strconv.Itoa(i)), stderr)
		if err == nil {
			err = check(m.it, refDigest, refArchive, mismatch)
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "e2ebench: iteration %d failed: %v\n", i, err)
			continue
		}
		fmt.Fprintf(stderr, "image %d: %.3fs, %d files, %.1f MB content, peak RSS %.1f MB, traced %v\n",
			i, m.it.WallSeconds, m.it.Files, float64(m.it.ContentBytes)/1e6, float64(m.it.PeakRSSKB)*1024/1e6, traced)
		done = append(done, m)
	}

	res := result{Correct: failed == 0 && len(done) > 0, Attempted: len(done) + failed, Failed: failed, Metrics: map[string]metricValue{}}
	var values map[string]float64
	var units []metric
	if o.trace {
		units = perLayer
		values, err = traceMetrics(o, origin, done, stdout)
		if err != nil {
			return err
		}
	} else {
		units = endToEnd
		values = endToEndMetrics(done)
	}
	for _, m := range units {
		if v, ok := values[m.name]; ok {
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			fmt.Fprintf(stdout, "%-36s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(stdout, "images: %d attempted, %d failed, medians over %d\n", res.Attempted, res.Failed, len(done))
	return json.NewEncoder(stdout).Encode(res)
}

// enough reports whether the loop has the minimum sample: three images, and
// in traced runs at least two of each kind.
func enough(done []measured, attempted int, trace bool) bool {
	if !trace {
		return attempted >= 3
	}
	var traced int
	for _, m := range done {
		if m.traced {
			traced++
		}
	}
	return attempted >= 4 && traced >= 2 && len(done)-traced >= 2
}

// buildImage runs one iteration in a fresh child process and removes its
// output afterwards.
func buildImage(ctx context.Context, exe string, o options, traced bool, dir string, stderr io.Writer) (measured, error) {
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil { // left by an interrupted run
		return measured{}, err
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return measured{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", dir, "--workload", o.workload.name,
		"--seed", strconv.FormatInt(o.seed, 10), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return measured{}, fmt.Errorf("image build process: %w", err)
	}
	it := &iteration{}
	if err := json.Unmarshal(out.Bytes(), it); err != nil {
		return measured{}, fmt.Errorf("image build output: %w", err)
	}
	if it.Error != "" {
		return measured{}, errors.New(it.Error)
	}
	return measured{it: it, setup: float64(it.StartUnixNano-t0.UnixNano()) / 1e9, traced: traced}, nil
}

// check is the per-image correctness check: the merged canonical digest
// must equal the single-process reference (and, at the default seed, the
// recorded digest), and a stitched archive must be byte-identical to the
// monolithic one.
func check(it *iteration, refDigest, refArchive string, mismatch error) error {
	if mismatch != nil {
		return mismatch
	}
	if it.Digest != refDigest {
		return fmt.Errorf("merged digest %s, single-process reference %s", it.Digest, refDigest)
	}
	if it.ArchiveSHA256 != refArchive {
		return fmt.Errorf("stitched archive sha256 %s, monolithic archive %s", it.ArchiveSHA256, refArchive)
	}
	if it.Files == 0 || it.ContentBytes == 0 || it.WallSeconds <= 0 {
		return fmt.Errorf("empty image: %d files, %d bytes", it.Files, it.ContentBytes)
	}
	return nil
}

// endToEndMetrics are medians over the untraced images.
func endToEndMetrics(done []measured) map[string]float64 {
	var fps, mbps, rss, amp, setup []float64
	for _, m := range done {
		it := m.it
		fps = append(fps, float64(it.Files)/it.WallSeconds)
		mbps = append(mbps, float64(it.ContentBytes)/1e6/it.WallSeconds)
		rss = append(rss, float64(it.PeakRSSKB)*1024/1e6)
		amp = append(amp, float64(it.WrittenBytes)/float64(it.ContentBytes))
		setup = append(setup, m.setup)
	}
	if len(done) == 0 {
		return nil
	}
	return map[string]float64{
		"files_per_s": median(fps),
		"mb_per_s":    median(mbps),
		"peak_rss_mb": median(rss),
		"write_amp":   median(amp),
		"setup_s":     median(setup),
	}
}

// traceMetrics derives the per-layer metrics (medians over the traced
// images), the ceilings and the tracing overhead, prints the breakdown row
// and writes the Chrome trace.
func traceMetrics(o options, origin *tracer, done []measured, stdout io.Writer) (map[string]float64, error) {
	perImage := map[string][]float64{}
	var untracedFPS, tracedFPS []float64
	var tracedRuns []measured
	sets := []spanSet{{label: "e2ebench (ceilings)", spans: origin.spans}}
	for i, m := range done {
		fps := float64(m.it.Files) / m.it.WallSeconds
		if !m.traced {
			untracedFPS = append(untracedFPS, fps)
			continue
		}
		tracedFPS = append(tracedFPS, fps)
		tracedRuns = append(tracedRuns, m)
		for k, v := range layerMetrics(m.it.Spans, o.workload.pipe) {
			perImage[k] = append(perImage[k], v)
		}
		sets = append(sets, spanSet{
			label:  fmt.Sprintf("image %d (traced)", i),
			offset: time.Duration(m.it.OriginUnixNano - origin.origin.UnixNano()),
			spans:  m.it.Spans,
		})
	}
	if len(tracedRuns) == 0 {
		return nil, nil
	}
	values := map[string]float64{}
	for k, vs := range perImage {
		values[k] = median(vs)
	}
	addCeilingShares(values, origin.spans)
	values["trace.overhead_pct"] = 100 * (div(median(untracedFPS), median(tracedFPS)) - 1)

	// The breakdown row is the traced image with the median wall time.
	sort.Slice(tracedRuns, func(i, j int) bool { return tracedRuns[i].it.WallSeconds < tracedRuns[j].it.WallSeconds })
	breakdown(stdout, o.workload.name, tracedRuns[len(tracedRuns)/2].it.Spans, values)

	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload.name, o.seed))
	meta := map[string]string{"workload": o.workload.name, "seed": strconv.FormatInt(o.seed, 10), "filesystem": filesystemName(o.out)}
	if err := writeChromeTrace(path, meta, sets); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %s\n", path)
	return values, nil
}

// filesystemName names the file system holding dir, from statfs's magic.
func filesystemName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs magic 0x%x", uint32(st.Type))
}
