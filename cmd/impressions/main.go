// Command impressions generates statistically accurate file-system images,
// the command-line interface to the Impressions framework (§3.1 of the
// paper). In the automated mode only the desired file-system size (or file
// count) is needed; the user-specified mode exposes the individual Table 2
// knobs.
//
// Besides single-process generation, the command exposes the distributed
// pipeline as subcommands: `plan` resolves the metadata and partitions the
// namespace into shards, `worker` executes one shard in isolation (workers
// are plain processes — run them on any shared-nothing fleet), `merge`
// stitches the shard manifests back into one verified image, and `distrun`
// orchestrates plan → N local worker processes → merge in one call.
//
// Fleet mode hands the orchestration to a running impressionsd: `worker
// -join <url>` turns this process into a lease-pulling fleet worker with
// mid-shard resume, and `fleetrun` submits a whole run and polls it to the
// canonical digest.
//
// Direct image sinks skip the VFS entirely: `-format tar` or `-format
// squashfs` serializes the image straight into an archive/filesystem file
// with sequential writes (no per-file syscalls, no mkfs, no root), `worker
// -format tar` emits one shard as a tar segment, and `stitch` merges the
// segments into the byte-identical monolithic archive.
//
// Examples:
//
//	impressions -size 4.55GB -out /tmp/image
//	impressions -files 20000 -dirs 4000 -content text-model -out /tmp/image
//	impressions -size 1GB -layout 0.95 -seed 42 -report report.json -out /tmp/image
//	impressions -files 100000 -seed 42 -format tar -out image.tar -digest
//	impressions -files 100000 -seed 42 -format squashfs -out image.squashfs
//	impressions -print-defaults
//	impressions plan -files 20000 -seed 42 -shards 8 -plan plan.json
//	impressions worker -plan plan.json -shard 3 -out /mnt/img -manifest shard3.json
//	impressions worker -plan plan.json -shard 3 -format tar -out seg3.tar -manifest shard3.json
//	impressions stitch -plan plan.json -out image.tar seg0.tar seg1.tar seg2.tar
//	impressions merge -plan plan.json -print-digest shard*.json
//	impressions distrun -files 20000 -seed 42 -shards 4 -out /tmp/image
//	impressions worker -join http://127.0.0.1:7077 -out /mnt/img -work /var/tmp/journals
//	impressions fleetrun -base http://127.0.0.1:7077 -files 20000 -seed 42 -shards 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"impressions/internal/content"
	"impressions/internal/core"
	"impressions/internal/distribute"
	"impressions/internal/fleet"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
	"impressions/internal/namespace"
	"impressions/internal/serve"
	"impressions/internal/stats"
)

// userFileSizeDist builds the hybrid file-size model with a user-overridden
// lognormal body and the default Pareto tail.
func userFileSizeDist(mu, sigma float64) stats.Distribution {
	return stats.NewHybrid(
		stats.NewLognormal(mu, sigma),
		stats.NewPareto(core.DefaultParetoK, core.DefaultParetoXm),
		core.DefaultFileSizeBodyWeight,
	)
}

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks argument/flag problems so Main can exit with the
// conventional usage status (2) instead of the runtime-failure status (1).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// Main runs the command and returns the process exit code: 0 on success
// (including -h/-help), 2 on flag or usage errors, 1 on runtime failures.
// Every path funnels through here — run() returns errors instead of calling
// os.Exit, so no parse failure can slip out with status 0.
func Main(args []string, stdout, stderr io.Writer) int {
	err := run(args, stdout, stderr)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usageError{}):
		fmt.Fprintln(stderr, "impressions:", err)
		return 2
	default:
		fmt.Fprintln(stderr, "impressions:", err)
		return 1
	}
}

// run dispatches to a subcommand; a leading flag (or nothing) selects the
// classic single-process generation path.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, rest := args[0], args[1:]
		switch sub {
		case "generate":
			return runGenerate(rest, stdout, stderr)
		case "plan":
			return runPlan(rest, stdout, stderr)
		case "worker":
			return runWorker(rest, stdout, stderr)
		case "merge":
			return runMerge(rest, stdout, stderr)
		case "stitch":
			return runStitch(rest, stdout, stderr)
		case "distrun":
			return runDistrun(rest, stdout, stderr)
		case "fleetrun":
			return runFleetrun(rest, stdout, stderr)
		default:
			return usagef("unknown subcommand %q (want generate, plan, worker, merge, stitch, distrun, or fleetrun)", sub)
		}
	}
	return runGenerate(args, stdout, stderr)
}

// parseFlags wraps FlagSet.Parse so ordinary parse failures surface as
// usage errors (exit status 2) while -h/-help stays a clean exit 0.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

// genFlags registers the generation-config flags shared by the generate,
// plan, and distrun subcommands.
type genFlags struct {
	size    *string
	files   *int
	dirs    *int
	seed    *int64
	content *string
	layout  *float64
	tree    *string
	special *bool
	mu      *float64
	sigma   *float64
	jobs    *int
}

func newGenFlags(fs *flag.FlagSet) *genFlags {
	return &genFlags{
		size:    fs.String("size", "", "desired file-system size (e.g. 500MB, 4.55GB)"),
		files:   fs.Int("files", 0, "number of files (derived from -size if omitted)"),
		dirs:    fs.Int("dirs", 0, "number of directories (derived from -files if omitted)"),
		seed:    fs.Int64("seed", 0, "random seed (0 = default seed)"),
		content: fs.String("content", "default", "content policy: default, text-1word, text-model, image, binary, zero"),
		layout:  fs.Float64("layout", 1.0, "target on-disk layout score in (0,1]"),
		tree:    fs.String("tree", "generative", "tree shape: generative, flat, deep"),
		special: fs.Bool("special-dirs", false, "bias placement towards special directories (Windows, Program Files, web cache)"),
		mu:      fs.Float64("size-mu", 0, "override lognormal mu of the file-size body"),
		sigma:   fs.Float64("size-sigma", 0, "override lognormal sigma of the file-size body"),
		jobs:    fs.Int("j", 0, "parallel workers for generation and materialization (0 = all CPUs, 1 = serial); the image is byte-identical at any level"),
	}
}

func (g *genFlags) config() (core.Config, error) {
	cfg := core.Config{
		Seed:                  *g.seed,
		NumFiles:              *g.files,
		NumDirs:               *g.dirs,
		ContentKind:           content.Kind(*g.content),
		LayoutScore:           *g.layout,
		UseSpecialDirectories: *g.special,
		Parallelism:           *g.jobs,
	}
	if *g.size != "" {
		bytes, err := parseSize(*g.size)
		if err != nil {
			return core.Config{}, usageError{err}
		}
		cfg.FSSizeBytes = bytes
	}
	shape, err := namespace.ParseShape(strings.ToLower(*g.tree))
	if err != nil {
		return core.Config{}, usagef("unknown tree shape %q", *g.tree)
	}
	cfg.TreeShape = shape
	if *g.mu > 0 || *g.sigma > 0 {
		cfg.Mode = core.ModeUserSpecified
		bodyMu, bodySigma := core.DefaultFileSizeMu, core.DefaultFileSizeSigma
		if *g.mu > 0 {
			bodyMu = *g.mu
		}
		if *g.sigma > 0 {
			bodySigma = *g.sigma
		}
		cfg.FileSizeDist = userFileSizeDist(bodyMu, bodySigma)
	}
	return cfg, nil
}

// runGenerate is the classic single-process path: generate, optionally
// materialize, report.
func runGenerate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		outFlag       = fs.String("out", "", "directory (-format dir) or image file (-format tar/squashfs) to materialize into (omit for a dry run)")
		formatFlag    = fs.String("format", "dir", "materialization sink: dir (VFS tree), tar (streamed archive), squashfs (mountable image)")
		metadataOnly  = fs.Bool("metadata-only", false, "create files with correct sizes but no content (fast)")
		reportFlag    = fs.String("report", "", "write the JSON reproducibility report to this file")
		printDefaults = fs.Bool("print-defaults", false, "print the Table 2 parameter defaults and exit")
		digestFlag    = fs.Bool("digest", false, "print the canonical SHA-256 image digest (computed without touching disk)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *printDefaults {
		printDefaultTable(stdout)
		return nil
	}

	cfg, err := gen.config()
	if err != nil {
		return err
	}
	res, err := core.GenerateImage(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.Image.Summary())
	if _, err := res.Report.WriteTo(stdout); err != nil {
		return err
	}

	format := strings.ToLower(*formatFlag)
	switch format {
	case "", "dir", "tar", "squashfs":
	default:
		return usagef("unknown -format %q (want dir, tar, or squashfs)", *formatFlag)
	}
	if format != "dir" && format != "" && *outFlag == "" {
		return usagef("-format %s requires -out <file>", format)
	}

	// When both the digest and a materialized image are wanted, collect the
	// per-file hashes during the single write pass instead of generating
	// every file's content twice.
	var digests []string
	if *digestFlag && *outFlag != "" && !*metadataOnly {
		digests = make([]string, res.Image.FileCount())
	}

	switch {
	case *outFlag == "":
	case format == "" || format == "dir":
		written, err := res.Image.Materialize(*outFlag, fsimage.MaterializeOptions{
			Registry:     content.NewRegistry(content.Kind(*gen.content)),
			Seed:         res.Image.Spec.Seed,
			MetadataOnly: *metadataOnly,
			Parallelism:  *gen.jobs,
			Digests:      digests,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "materialized %d bytes under %s\n", written, *outFlag)
	default:
		written, err := writeImageArchive(format, *outFlag, res.Image, content.Kind(*gen.content), *metadataOnly, digests)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s image %s (%d content bytes, sequential)\n", format, *outFlag, written)
	}

	if *digestFlag {
		if *metadataOnly && *outFlag != "" {
			// The digest always describes the image's full content; a
			// metadata-only tree holds empty files, so the two will not match
			// — and computing it regenerates every file's content in memory.
			fmt.Fprintln(stderr, "impressions: note: -digest describes the image's content, not the metadata-only tree just written")
		}
		var digest string
		if digests != nil {
			digest, err = fsimage.CombineDigest(res.Image, digests)
		} else {
			digest, err = res.Image.Digest(fsimage.MaterializeOptions{
				Registry:    content.NewRegistry(content.Kind(*gen.content)),
				Seed:        res.Image.Spec.Seed,
				Parallelism: *gen.jobs,
			})
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", digest)
	}

	if *reportFlag != "" {
		if err := writeReportFile(*reportFlag, &res.Report); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote reproducibility report to %s\n", *reportFlag)
	}
	return nil
}

// writeImageArchive serializes the image straight into an archive or
// filesystem image file with sequential writes — the direct image sinks:
// no VFS tree, no per-file syscalls, no mkfs, no root. Returns the content
// bytes written.
func writeImageArchive(format, out string, img *fsimage.Image, kind content.Kind, metadataOnly bool, digests []string) (int64, error) {
	opts := imgfmt.Options{
		Registry:     content.NewRegistry(kind),
		Seed:         img.Spec.Seed,
		MetadataOnly: metadataOnly,
	}
	if digests != nil {
		opts.OnDigest = func(f fsimage.File, sum string) { digests[f.ID] = sum }
	}
	f, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	var written int64
	switch format {
	case "tar":
		sink := imgfmt.NewTarSink(f, opts)
		if err = img.StreamRecords(sink); err == nil {
			err = sink.Close()
		}
		written = sink.Written()
	case "squashfs":
		var sink *imgfmt.SquashfsSink
		if sink, err = imgfmt.NewSquashfsSink(f, opts); err == nil {
			if err = img.StreamRecords(sink); err == nil {
				err = sink.Close()
			}
		}
		if sink != nil {
			written = sink.Written()
		}
	}
	if err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}

// runStitch merges per-shard tar segments (written by `worker -format
// tar`, named in shard order) into the monolithic archive — byte-identical
// to a single-process `-format tar` run of the same plan. Content bytes
// are copied, never regenerated; every entry is verified against the plan
// stream.
func runStitch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions stitch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag = fs.String("plan", "", "plan file the segments were built from (required)")
		outFlag  = fs.String("out", "", "file to write the stitched tar archive to (required)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: impressions stitch -plan plan.json -out image.tar seg0.tar seg1.tar ...")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *planFlag == "" || *outFlag == "" {
		return usagef("stitch: -plan and -out are required")
	}
	segPaths := fs.Args()
	if len(segPaths) == 0 {
		return usagef("stitch: segment files (one per shard, in shard order) are required")
	}
	planF, err := os.Open(*planFlag)
	if err != nil {
		return err
	}
	defer planF.Close()
	segments := make([]io.Reader, len(segPaths))
	for i, p := range segPaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		segments[i] = f
	}
	out, err := os.Create(*outFlag)
	if err != nil {
		return err
	}
	p, err := distribute.StitchPlanTar(planF, segments, out, imgfmt.Options{})
	if err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stitch: %d segments -> %s (%d dirs, %d files, %d content bytes)\n",
		len(segPaths), *outFlag, p.Dirs, p.Files, p.Bytes)
	return nil
}

// runPlan resolves the metadata pass and writes the shard plan. Records go
// from the metadata pass straight into the chunk encoder, so the planner
// never holds the image — at 10^7+ files that is the difference between
// O(chunk) file records and gigabytes of retained metadata. With
// -partition K the plan is emitted as K independent fragment documents
// plus an index at the plan path; with -spill even the metadata columns
// live on disk, so the build runs in O(dirs) heap at any file count.
func runPlan(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		shardsFlag    = fs.Int("shards", 4, "number of subtree shards to partition the namespace into")
		planFlag      = fs.String("plan", "", "file to write the JSON plan to (required)")
		partitionFlag = fs.Int("partition", 0, "emit the plan as this many self-contained fragment documents (<plan>.frag<i>) plus a fragment index at -plan; fragments are byte-identical to slicing the monolithic plan")
		spillFlag     = fs.String("spill", "", "spill the metadata pass's per-file columns to temp files under this directory (O(dirs) live heap; identical plan bytes)")
		memFlag       = fs.Bool("mem", false, "report peak heap usage of the plan build")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *planFlag == "" {
		return usagef("plan: -plan <file> is required")
	}
	if *gen.layout != 1.0 {
		return usagef("plan: -layout is not supported in distributed runs (disk-layout simulation is a single-node feature)")
	}
	shardsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})
	cfg, err := gen.config()
	if err != nil {
		return err
	}
	req := distribute.PlanRequest{Config: cfg, MaxShards: *shardsFlag, Partition: *partitionFlag, Spill: *spillFlag}
	if *partitionFlag > 0 && !shardsSet {
		req.MaxShards = 0 // -partition alone fixes the shard count
	}
	var sampler *memSampler
	if *memFlag {
		sampler = startMemSampler()
	}
	var plan *distribute.Plan
	fragments := 0
	if *partitionFlag > 0 {
		plan, err = distribute.PartitionPlan(context.Background(), req, func(shard int) (io.WriteCloser, error) {
			return os.Create(fmt.Sprintf("%s.frag%d", *planFlag, shard))
		})
		if err == nil {
			fragments = len(plan.Shards)
			names := make([]string, fragments)
			for s := range names {
				names[s] = distribute.FragmentName(filepath.Base(*planFlag), s)
			}
			index := &distribute.FragmentIndex{
				FormatVersion: distribute.FragmentIndexVersion,
				Fingerprint:   plan.Fingerprint(),
				Shards:        fragments,
				Files:         plan.Files,
				Dirs:          plan.Dirs,
				Bytes:         plan.Bytes,
				Fragments:     names,
			}
			err = writeJSONFile(*planFlag, index.Encode)
		}
	} else {
		err = writeJSONFile(*planFlag, func(w io.Writer) error {
			var serr error
			plan, serr = req.Stream(context.Background(), w)
			return serr
		})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "plan: %d files, %d dirs, %d bytes across %d shards (fingerprint %s)\n",
		plan.Files, plan.Dirs, plan.Bytes, len(plan.Shards), plan.Fingerprint()[:12])
	for _, s := range plan.Shards {
		fmt.Fprintf(stdout, "  shard %d: %d dirs, %d files, %s (stream %s)\n",
			s.Index, s.Dirs, s.Files, stats.FormatBytes(float64(s.Bytes)), s.StreamKey)
	}
	if fragments > 0 {
		fmt.Fprintf(stdout, "plan: wrote %d fragments next to %s (index at %s)\n", fragments, *planFlag, *planFlag)
	}
	if sampler != nil {
		peak, retained, total := sampler.stop()
		fmt.Fprintf(stdout, "plan: peak heap %s (live %s retained after build), %s allocated in total, %d fragments\n",
			stats.FormatBytes(float64(peak)), stats.FormatBytes(float64(retained)), stats.FormatBytes(float64(total)), fragments)
	}
	return nil
}

// memSampler tracks the process's peak heap while a build runs, for the
// plan subcommand's -mem report.
type memSampler struct {
	baseline  uint64
	baseAlloc uint64
	peak      atomic.Uint64
	quit      chan struct{}
	done      chan struct{}
}

func startMemSampler() *memSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &memSampler{baseline: ms.HeapAlloc, baseAlloc: ms.TotalAlloc, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak heap above baseline, the live
// heap retained now (after a final GC), and the bytes allocated in total.
func (s *memSampler) stop() (peak, retained, total uint64) {
	close(s.quit)
	<-s.done
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak.Load() {
		s.peak.Store(ms.HeapAlloc)
	}
	peak = s.peak.Load() - min(s.peak.Load(), s.baseline)
	retained = ms.HeapAlloc - min(ms.HeapAlloc, s.baseline)
	total = ms.TotalAlloc - s.baseAlloc
	return peak, retained, total
}

// runWorker executes one shard of a plan and writes its manifest. The plan
// is decoded through the shard-pruning path: every chunk is still
// integrity-verified, but only this shard's file records are retained, so a
// worker's memory is bounded by its shard (plus the compact directory
// tree), never by the image.
func runWorker(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag     = fs.String("plan", "", "plan file produced by `impressions plan`")
		fragFlag     = fs.String("fragment", "", "self-contained fragment document (written by `plan -partition`) to execute; the fragment names its own shard")
		fromFlag     = fs.String("from", "", "URL of a shard document to fetch and execute (the daemon's /v1/plans/{fp}/shards/{i})")
		joinFlag     = fs.String("join", "", "base URL of an impressionsd to join as a fleet worker (e.g. http://127.0.0.1:7077)")
		shardFlag    = fs.Int("shard", -1, "shard index to execute (required with -plan)")
		formatFlag   = fs.String("format", "dir", "shard output: dir (materialized tree) or tar (segment file for `stitch`)")
		outFlag      = fs.String("out", "", "directory (-format dir) or segment file (-format tar) to write the shard to (required)")
		manifestFlag = fs.String("manifest", "", "file to write the shard manifest to (required with -plan/-from)")
		metadataOnly = fs.Bool("metadata-only", false, "create files with correct sizes but no content")
		jobs         = fs.Int("j", 0, "concurrent file writers within this worker (0 = all CPUs, 1 = serial); output is byte-identical at any level")
		workDir      = fs.String("work", "", "fleet mode: directory for shard journals (default: -out); keep it stable across restarts to resume mid-shard")
		batchFiles   = fs.Int("batch-files", 0, "fleet mode: files per sealed journal batch (0 = default)")
		idleExit     = fs.Duration("idle-exit", 0, "fleet mode: exit cleanly after this long without work (0 = run until signalled)")
		failAfter    = fs.Int("fail-after-files", 0, "fault injection: SIGKILL this process after writing N files of a leased shard")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	format := strings.ToLower(*formatFlag)
	if format != "dir" && format != "" && format != "tar" {
		return usagef("worker: unknown -format %q (want dir or tar)", *formatFlag)
	}
	if *joinFlag != "" {
		if *planFlag != "" || *fromFlag != "" || *fragFlag != "" {
			return usagef("worker: -join is exclusive with -plan/-from/-fragment")
		}
		if *outFlag == "" {
			return usagef("worker: -join requires -out")
		}
		if format == "tar" {
			return usagef("worker: -format tar is not available in fleet mode (leases materialize trees)")
		}
		return runFleetWorker(*joinFlag, *outFlag, *workDir, *batchFiles, *idleExit, *failAfter, stdout)
	}
	sources := 0
	for _, set := range []bool{*planFlag != "", *fromFlag != "", *fragFlag != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return usagef("worker: exactly one of -plan, -from, or -fragment is required (or -join for fleet mode)")
	}
	if *outFlag == "" || *manifestFlag == "" {
		return usagef("worker: -out and -manifest are required")
	}
	var (
		view *distribute.ShardView
		err  error
	)
	switch {
	case *fromFlag != "":
		view, err = fetchShardView(*fromFlag)
	case *fragFlag != "":
		var f *os.File
		if f, err = os.Open(*fragFlag); err == nil {
			view, err = distribute.DecodeShardView(f)
			f.Close()
		}
	default:
		if *shardFlag < 0 {
			return usagef("worker: -plan requires -shard")
		}
		view, err = distribute.LoadPlanShard(*planFlag, *shardFlag)
	}
	if err != nil {
		return err
	}
	var m *distribute.Manifest
	if format == "tar" {
		var seg *os.File
		if seg, err = os.Create(*outFlag); err != nil {
			return err
		}
		m, err = distribute.ExecuteShardViewTar(view, seg, distribute.WorkerOptions{MetadataOnly: *metadataOnly})
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	} else {
		m, err = distribute.ExecuteShardView(view, *outFlag, distribute.WorkerOptions{MetadataOnly: *metadataOnly, Parallelism: *jobs})
	}
	if err != nil {
		return err
	}
	if err := writeJSONFile(*manifestFlag, m.Encode); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker: shard %d wrote %d dirs, %d files, %d bytes under %s (manifest %s)\n",
		m.Shard, m.Dirs, m.Files, m.Bytes, *outFlag, *manifestFlag)
	return nil
}

// fetchShardView pulls a self-contained shard document from a daemon URL —
// the re-run path a fleet run's status names for outstanding shards.
func fetchShardView(url string) (*distribute.ShardView, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("worker: fetching shard from %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return distribute.DecodeShardView(resp.Body)
}

// runFleetWorker joins a daemon's fleet and works shard leases until
// signalled (or idle-exit). An injected -fail-after-files crash escalates
// to a SIGKILL of this very process — no deferred cleanup, no flushes —
// so fault drills exercise the exact failure mode of a machine dying.
func runFleetWorker(base, outRoot, workDir string, batchFiles int, idleExit time.Duration, failAfter int, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := &serve.Client{Base: base}
	readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := c.WaitReady(readyCtx); err != nil {
		return err
	}
	st, err := c.RunFleetWorker(ctx, serve.FleetWorkerOptions{
		OutRoot:        outRoot,
		WorkDir:        workDir,
		BatchFiles:     batchFiles,
		IdleExit:       idleExit,
		FailAfterFiles: failAfter,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stdout, format+"\n", a...)
		},
	})
	if errors.Is(err, distribute.ErrSimulatedCrash) {
		fmt.Fprintf(stdout, "worker %s: injected crash — SIGKILL\n", st.WorkerID)
		//impressions:nondeterministic fault injection must kill this very process, pid is the point
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker %s: done (%d shards committed, %d resumed mid-shard, %d files written, %d resumed)\n",
		st.WorkerID, st.ShardsCommitted, st.ShardsResumed, st.FilesWritten, st.FilesResumed)
	return nil
}

// runFleetrun drives a whole distributed run through a daemon's scheduler:
// one POST /v1/runs, then poll until the canonical digest (or failure,
// with every outstanding shard's re-run command).
func runFleetrun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions fleetrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base    = fs.String("base", "http://127.0.0.1:7077", "base URL of the running impressionsd")
		shards  = fs.Int("shards", 0, "number of shards (0 = one per daemon CPU decision, i.e. server default)")
		timeout = fs.Duration("timeout", 10*time.Minute, "overall deadline for the run")
		size    = fs.String("size", "", "desired file-system size (e.g. 500MB, 4.55GB)")
		files   = fs.Int("files", 0, "number of files (derived from -size if omitted)")
		dirs    = fs.Int("dirs", 0, "number of directories (derived from -files if omitted)")
		seed    = fs.Int64("seed", 0, "random seed (0 = default seed)")
		kind    = fs.String("content", "default", "content policy: default, text-1word, text-model, image, binary, zero")
		tree    = fs.String("tree", "generative", "tree shape: generative, flat, deep")
		special = fs.Bool("special-dirs", false, "bias placement towards special directories")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	spec := fsimage.Spec{
		Seed:                  *seed,
		NumFiles:              *files,
		NumDirs:               *dirs,
		ContentKind:           *kind,
		TreeShape:             *tree,
		UseSpecialDirectories: *special,
	}
	if *size != "" {
		bytes, err := parseSize(*size)
		if err != nil {
			return usageError{err}
		}
		spec.FSSizeBytes = bytes
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := &serve.Client{Base: *base}
	if err := c.WaitReady(ctx); err != nil {
		return err
	}
	st, err := c.PostRun(ctx, serve.PlanRequest{Spec: spec, Shards: *shards})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleetrun: run %s created (%d shards, fingerprint %s)\n", st.ID, st.TotalShards, st.Fingerprint)
	st, err = c.WaitRun(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleetrun: run %s %s: %d/%d shards committed, %d requeue(s), %dms\n",
		st.ID, st.State, st.Committed, st.TotalShards, st.Requeues, st.ElapsedMillis)
	if st.State != fleet.RunComplete {
		for _, o := range st.Outstanding {
			fmt.Fprintf(stdout, "fleetrun: shard %d outstanding after %d attempt(s); re-run by hand:\n  %s\n", o.Shard, o.Attempts, o.Command)
		}
		return fmt.Errorf("fleetrun: run %s %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintf(stdout, "image digest: sha256:%s\n", st.Digest)
	return nil
}

// runMerge verifies shard manifests against the plan and emits the merged
// image, report, and canonical digest. With -partial it instead audits a
// possibly incomplete manifest set and reports exactly which shards are
// outstanding — with the worker command line to re-run each — so a failed
// distributed run can be resumed instead of restarted.
func runMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		planFlag    = fs.String("plan", "", "plan file produced by `impressions plan` (required unless -index)")
		indexFlag   = fs.String("index", "", "fragment index produced by `plan -partition`: verify the fragment documents + manifests and reproduce the canonical digest without ever materializing the image")
		imageFlag   = fs.String("image", "", "write the merged image metadata (JSON) to this file")
		reportFlag  = fs.String("report", "", "write the merged JSON reproducibility report to this file")
		printDigest = fs.Bool("print-digest", false, "print only the canonical image digest line")
		partialFlag = fs.Bool("partial", false, "accept an incomplete manifest set: report outstanding shards (with re-run commands) instead of failing; merges normally when the set turns out to be complete")
		outHint     = fs.String("out", "", "output root used in the re-run commands -partial prints (display only)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *indexFlag != "" {
		if *planFlag != "" || *partialFlag || *imageFlag != "" || *reportFlag != "" {
			return usagef("merge: -index is exclusive with -plan/-partial/-image/-report (a fragment merge never holds the image)")
		}
		return runFragmentMerge(*indexFlag, fs.Args(), *printDigest, stdout)
	}
	if *planFlag == "" {
		return usagef("merge: -plan <file> is required")
	}
	if fs.NArg() == 0 && !*partialFlag {
		return usagef("merge: at least one shard manifest file is required (or -partial to audit an empty set)")
	}
	open, err := distribute.LoadPlan(*planFlag)
	if err != nil {
		return err
	}
	manifests := make([]*distribute.Manifest, 0, fs.NArg())
	for _, path := range fs.Args() {
		m, err := distribute.LoadManifest(path)
		if err != nil {
			if !*partialFlag {
				return err
			}
			// In partial mode an unreadable manifest (truncated upload, crash
			// mid-write) is triage input, not a fatal error: its shard simply
			// stays outstanding.
			fmt.Fprintf(stderr, "impressions: merge: skipping unreadable manifest %s: %v\n", path, err)
			continue
		}
		manifests = append(manifests, m)
	}
	var res *distribute.MergeResult
	if *partialFlag {
		audit, err := distribute.AuditManifests(open, manifests)
		if err != nil {
			return err
		}
		if !audit.Complete() {
			printMergeAudit(stdout, audit, open, *planFlag, *outHint, fs.Args())
			return nil
		}
		if res, err = distribute.MergeAudited(open, audit); err != nil {
			return err
		}
	} else if res, err = distribute.Merge(open, manifests); err != nil {
		return err
	}
	if !*printDigest {
		fmt.Fprintf(stdout, "merged %s\n", res.Image.Summary())
		if _, err := res.Report.WriteTo(stdout); err != nil {
			return err
		}
	}
	if *printDigest && res.Digest == "" {
		return fmt.Errorf("merge: the manifests are metadata-only and carry no content digest")
	}
	if res.Digest != "" {
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", res.Digest)
	}
	if *imageFlag != "" {
		if err := writeJSONFile(*imageFlag, res.Image.Encode); err != nil {
			return err
		}
	}
	if *reportFlag != "" {
		if err := writeReportFile(*reportFlag, &res.Report); err != nil {
			return err
		}
	}
	return nil
}

// runFragmentMerge is the partitioned pipeline's final stage: it streams
// the fragment documents named by the index against the workers' manifests
// and reproduces the canonical image digest in O(dirs + shards·chunk)
// memory — the merge node never holds the image either.
func runFragmentMerge(indexPath string, manifestPaths []string, printDigest bool, stdout io.Writer) error {
	ix, err := distribute.LoadFragmentIndex(indexPath)
	if err != nil {
		return err
	}
	if len(manifestPaths) == 0 {
		return usagef("merge: -index requires the shard manifest files as arguments")
	}
	manifests := make([]*distribute.Manifest, ix.Shards)
	for _, path := range manifestPaths {
		m, err := distribute.LoadManifest(path)
		if err != nil {
			return err
		}
		if m.Shard < 0 || m.Shard >= ix.Shards {
			return fmt.Errorf("merge: manifest %s names shard %d, index has %d shards", path, m.Shard, ix.Shards)
		}
		if manifests[m.Shard] != nil {
			return fmt.Errorf("merge: duplicate manifest for shard %d (%s)", m.Shard, path)
		}
		manifests[m.Shard] = m
	}
	for s, m := range manifests {
		if m == nil {
			return fmt.Errorf("merge: no manifest for shard %d — run its worker (impressions worker -fragment %s ...) and merge again",
				s, filepath.Join(filepath.Dir(indexPath), ix.Fragments[s]))
		}
	}
	dir := filepath.Dir(indexPath)
	res, err := distribute.MergeFragments(context.Background(), func(shard int) (io.ReadCloser, error) {
		return os.Open(filepath.Join(dir, ix.Fragments[shard]))
	}, manifests)
	if err != nil {
		return err
	}
	if res.Fingerprint != ix.Fingerprint {
		return fmt.Errorf("merge: fragment fingerprint %s does not match index fingerprint %s", res.Fingerprint, ix.Fingerprint)
	}
	if !printDigest {
		fmt.Fprintf(stdout, "merged %d dirs, %d files, %d bytes from %d fragments (fingerprint %s)\n",
			res.Dirs, res.Files, res.Bytes, ix.Shards, res.Fingerprint[:12])
	}
	if printDigest && res.Digest == "" {
		return fmt.Errorf("merge: the manifests are metadata-only and carry no content digest")
	}
	if res.Digest != "" {
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", res.Digest)
	}
	return nil
}

// printMergeAudit renders an incomplete audit as a triage report: one line
// per outstanding shard, each with the exact worker command that produces
// the missing manifest. outHint fills the -out argument when known;
// manifestPaths (the files the caller presented) anchor where the re-run's
// manifest should land, falling back to the plan's directory.
func printMergeAudit(w io.Writer, audit *distribute.Audit, open *distribute.OpenPlan, planPath, outHint string, manifestPaths []string) {
	fmt.Fprintf(w, "merge: %d of %d shards verified (plan fingerprint %s)\n",
		audit.Verified(), len(audit.Statuses), open.Plan.Fingerprint()[:12])
	if outHint == "" {
		outHint = "<out>"
	}
	// Re-run manifests belong next to the manifests the operator already
	// has (so the same glob picks them up on the next merge), not
	// necessarily next to the plan file.
	manifestDir := filepath.Dir(planPath)
	if len(manifestPaths) > 0 {
		manifestDir = filepath.Dir(manifestPaths[0])
	}
	// A metadata-only run's outstanding shards must be re-run metadata-only,
	// or the regenerated manifest will be rejected for mixing run modes.
	mode := ""
	if audit.Verified() > 0 && !audit.ContentHashed {
		mode = " -metadata-only"
	}
	for _, st := range audit.Statuses {
		if st.State == distribute.ShardVerified {
			continue
		}
		reason := st.State.String()
		if st.Err != nil {
			reason = fmt.Sprintf("%s (%v)", reason, st.Err)
		}
		fmt.Fprintf(w, "  shard %d: %s\n", st.Shard, reason)
		fmt.Fprintf(w, "    re-run: impressions worker -plan %s -shard %d -out %s -manifest %s%s\n",
			planPath, st.Shard, outHint, filepath.Join(manifestDir, fmt.Sprintf("manifest-%d.json", st.Shard)), mode)
	}
	fmt.Fprintf(w, "merge: image incomplete — run the outstanding workers, then merge again\n")
}

// workerCommand builds the *exec.Cmd that distrun spawns for one shard. It
// is a variable so tests can reroute it through the test binary's helper
// process; the default re-executes this binary's worker subcommand.
var workerCommand = func(planPath string, shard int, outRoot, manifestPath string, metadataOnly bool, jobs int) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrun: locating executable: %w", err)
	}
	args := workerArgs(planPath, shard, outRoot, manifestPath, metadataOnly, jobs)
	return exec.Command(exe, args...), nil
}

// workerArgs builds the worker-subcommand argument list distrun (and the
// tests' helper-process reroute) spawn a shard with.
func workerArgs(planPath string, shard int, outRoot, manifestPath string, metadataOnly bool, jobs int) []string {
	args := []string{"worker", "-plan", planPath, "-shard", strconv.Itoa(shard), "-out", outRoot, "-manifest", manifestPath}
	if metadataOnly {
		args = append(args, "-metadata-only")
	}
	if jobs != 0 {
		args = append(args, "-j", strconv.Itoa(jobs))
	}
	return args
}

// distrunSupervisor drives one distributed run's worker fleet: one
// goroutine per outstanding shard, each retrying its worker process up to
// retries times under an optional per-attempt deadline. Every attempt
// materializes into a private staging directory and writes its manifest to
// a staging path; only a verified attempt is promoted (files renamed into
// the shared out root, then the manifest renamed to its final path — the
// atomic commit point), so a killed, failed, or timed-out attempt never
// leaks partial output into the image or a half-written manifest into the
// work directory. The first unrecoverable shard failure cancels the shared
// context, which kills every sibling worker process promptly instead of
// waiting for them to finish.
type distrunSupervisor struct {
	open         *distribute.OpenPlan
	planPath     string
	workDir      string
	outRoot      string
	stageRoot    string
	metadataOnly bool
	jobs         int
	retries      int
	shardTimeout time.Duration

	cancel context.CancelFunc
	mu     sync.Mutex // guards stdout/stderr writes and rootErr
	stdout io.Writer
	stderr io.Writer
	// rootErr is the failure that triggered cancellation — the error worth
	// reporting, as opposed to the "canceled" errors of killed siblings.
	rootErr error
}

func (d *distrunSupervisor) logf(format string, a ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fmt.Fprintf(d.stdout, format, a...)
}

// fail records the run's root-cause failure once and cancels every sibling.
func (d *distrunSupervisor) fail(err error) {
	d.mu.Lock()
	if d.rootErr == nil {
		d.rootErr = err
	}
	d.mu.Unlock()
	d.cancel()
}

func (d *distrunSupervisor) manifestPath(shard int) string {
	return filepath.Join(d.workDir, fmt.Sprintf("manifest-%d.json", shard))
}

// verifyShardOnDisk confirms the out root actually holds everything a
// resumable shard's manifest claims: every directory (including file-less
// ones — the byte-identical-tree contract covers empty dirs too) and every
// file, present and exactly the planned size. It is a stat pass (no
// re-hashing), which is what protects a resume against a wrong or cleaned
// -out without re-paying content generation; cross-mode content mismatches
// are rejected earlier by the manifest's ContentHashed check.
func verifyShardOnDisk(open *distribute.OpenPlan, shard int, outRoot string) error {
	for _, id := range open.Part.Shards[shard] {
		if id == 0 {
			continue // the image root is created unconditionally
		}
		p := filepath.Join(outRoot, filepath.FromSlash(open.Image.Tree.Path(id)))
		info, err := os.Stat(p)
		if err != nil {
			return fmt.Errorf("its output is not in %s (%w)", outRoot, err)
		}
		if !info.IsDir() {
			return fmt.Errorf("%s is not a directory", p)
		}
	}
	for _, i := range open.FilesByShard[shard] {
		f := open.Image.Files[i]
		p := filepath.Join(outRoot, filepath.FromSlash(open.Image.FilePath(f)))
		info, err := os.Stat(p)
		if err != nil {
			return fmt.Errorf("its output is not in %s (%w)", outRoot, err)
		}
		if !info.Mode().IsRegular() || info.Size() != f.Size {
			return fmt.Errorf("%s has %d bytes, plan says %d", p, info.Size(), f.Size)
		}
	}
	return nil
}

// runShard supervises one shard to completion or unrecoverable failure.
func (d *distrunSupervisor) runShard(ctx context.Context, shard int) error {
	var lastErr error
	for attempt := 0; attempt <= d.retries; attempt++ {
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("distrun: shard %d canceled after a sibling's failure", shard)
			}
			return lastErr
		}
		err := d.runAttempt(ctx, shard, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The attempt died because the run is being torn down; its error
			// is noise, not a reason to retry.
			return lastErr
		}
		if attempt < d.retries {
			d.logf("distrun: shard %d attempt %d failed (%v); retrying\n", shard, attempt+1, err)
		}
	}
	d.fail(fmt.Errorf("distrun: shard %d failed %d attempt(s), giving up: %w", shard, d.retries+1, lastErr))
	return lastErr
}

// runAttempt executes one worker process into a fresh staging area and, on
// success, promotes its output and manifest.
func (d *distrunSupervisor) runAttempt(ctx context.Context, shard, attempt int) (err error) {
	stage := filepath.Join(d.stageRoot, fmt.Sprintf("shard-%d-attempt-%d", shard, attempt))
	stageManifest := d.manifestPath(shard) + fmt.Sprintf(".attempt-%d", attempt)
	defer func() {
		if err != nil {
			// Never leave a failed attempt's partial output or manifest
			// behind where a retry or resume could mistake it for done work.
			os.RemoveAll(stage)
			os.Remove(stageManifest)
		}
	}()

	attemptCtx := ctx
	if d.shardTimeout > 0 {
		var cancelAttempt context.CancelFunc
		attemptCtx, cancelAttempt = context.WithTimeout(ctx, d.shardTimeout)
		defer cancelAttempt()
	}
	cmd, err := workerCommand(d.planPath, shard, stage, stageManifest, d.metadataOnly, d.jobs)
	if err != nil {
		return err
	}
	var errBuf bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &errBuf
	defer func() {
		if errBuf.Len() > 0 {
			d.mu.Lock()
			fmt.Fprintf(d.stderr, "--- worker %d (attempt %d) stderr ---\n%s", shard, attempt+1, errBuf.String())
			d.mu.Unlock()
		}
	}()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("distrun: starting worker %d: %w", shard, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case werr := <-done:
		if werr != nil {
			return fmt.Errorf("distrun: worker %d: %w", shard, werr)
		}
	case <-attemptCtx.Done():
		// Kill the wedged (or no-longer-wanted) process and reap it before
		// touching its staging area.
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		<-done
		if ctx.Err() != nil {
			return fmt.Errorf("distrun: worker %d killed: %w", shard, ctx.Err())
		}
		return fmt.Errorf("distrun: worker %d timed out after %s (attempt %d)", shard, d.shardTimeout, attempt+1)
	}

	// Trust nothing about the attempt until its manifest verifies against
	// the plan: a worker that exited 0 with a truncated or foreign manifest
	// is a failure, not a success.
	m, err := distribute.LoadManifest(stageManifest)
	if err != nil {
		return fmt.Errorf("distrun: worker %d produced no usable manifest: %w", shard, err)
	}
	if m.Shard != shard {
		return fmt.Errorf("distrun: worker %d produced a manifest for shard %d", shard, m.Shard)
	}
	if err := distribute.VerifyManifest(d.open, m); err != nil {
		return fmt.Errorf("distrun: worker %d manifest failed verification: %w", shard, err)
	}
	if err := promoteStage(stage, d.outRoot); err != nil {
		return fmt.Errorf("distrun: promoting shard %d output: %w", shard, err)
	}
	os.RemoveAll(stage)
	// The manifest rename is the commit point: a sealed manifest at its
	// final path means — and only ever means — promoted, verified output.
	if err := os.Rename(stageManifest, d.manifestPath(shard)); err != nil {
		return fmt.Errorf("distrun: committing shard %d manifest: %w", shard, err)
	}
	return nil
}

// promoteStage merges one staged shard attempt into the final output root:
// directories are (re)created, files are renamed into place. Renames are
// atomic and every shard's file set is disjoint, so promotions never
// collide; re-promoting after a crash simply overwrites. The stage lives
// under the out root, so source and target share a filesystem and rename
// never degrades to a copy.
func promoteStage(stage, outRoot string) error {
	return filepath.WalkDir(stage, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(stage, path)
		if rerr != nil {
			return rerr
		}
		if rel == "." {
			return nil
		}
		target := filepath.Join(outRoot, rel)
		if d.IsDir() {
			info, ierr := d.Info()
			if ierr != nil {
				return ierr
			}
			return os.MkdirAll(target, info.Mode().Perm())
		}
		return os.Rename(path, target)
	})
}

// runDistrun orchestrates the full pipeline locally: build the plan, launch
// one supervised worker OS process per shard (all promoting into the shared
// output root — subtree shards are disjoint), and merge their manifests. It
// exists as a convenience and as a constantly exercised reference for the
// multi-machine recipe, where the same worker invocations run on different
// hosts.
//
// With -work pointing at the directory of an earlier (failed) run, distrun
// resumes it: shards whose sealed manifests still verify against the plan
// fingerprint are skipped, stale manifests — from an older plan, a
// different seed, or a truncated write — are deleted and their shards
// regenerated. A manifest is never taken at face value: only fingerprint-
// bound, self-hash-verified manifests count as done work.
func runDistrun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("impressions distrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := newGenFlags(fs)
	var (
		shardsFlag   = fs.Int("shards", 4, "number of shards / local worker processes")
		outFlag      = fs.String("out", "", "directory to materialize the image into (required)")
		workFlag     = fs.String("work", "", "directory for the plan and manifests; reuse it to resume a failed run (default: a temp dir, removed afterwards)")
		metadataOnly = fs.Bool("metadata-only", false, "create files with correct sizes but no content")
		reportFlag   = fs.String("report", "", "write the merged JSON reproducibility report to this file")
		retriesFlag  = fs.Int("retries", 1, "times to retry a failed or timed-out worker before giving up")
		timeoutFlag  = fs.Duration("shard-timeout", 0, "per-attempt deadline for one worker process (0 = none)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *outFlag == "" {
		return usagef("distrun: -out <dir> is required")
	}
	if *retriesFlag < 0 {
		return usagef("distrun: -retries must be >= 0")
	}
	if *timeoutFlag < 0 {
		return usagef("distrun: -shard-timeout must be >= 0")
	}
	if *gen.layout != 1.0 {
		return usagef("distrun: -layout is not supported in distributed runs (disk-layout simulation is a single-node feature)")
	}
	cfg, err := gen.config()
	if err != nil {
		return err
	}

	workDir := *workFlag
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "impressions-distrun-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}

	// The plan is deterministic from the flags, so rewriting it on resume is
	// idempotent; if the work dir held a plan from different flags, the
	// fingerprint check below retires its manifests as stale.
	planPath := filepath.Join(workDir, "plan.json")
	req := distribute.PlanRequest{Config: cfg, MaxShards: *shardsFlag}
	if err := writeJSONFile(planPath, func(w io.Writer) error {
		_, err := req.Stream(context.Background(), w)
		return err
	}); err != nil {
		return err
	}
	open, err := distribute.LoadPlan(planPath)
	if err != nil {
		return err
	}
	plan := open.Plan

	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		return err
	}
	stageRoot := filepath.Join(*outFlag, ".impressions-stage")
	// Leftover staging from a crashed run is garbage by definition: resume
	// state lives solely in committed manifests. That includes attempt-
	// staged manifests in the work dir — a hard-killed supervisor can leave
	// manifest-N.json.attempt-K files behind.
	if err := os.RemoveAll(stageRoot); err != nil {
		return err
	}
	defer os.RemoveAll(stageRoot)
	if staged, err := filepath.Glob(filepath.Join(workDir, "manifest-*.json.attempt-*")); err == nil {
		for _, p := range staged {
			os.Remove(p)
		}
	}

	// Resume pass: a shard is done iff its committed manifest verifies
	// against this exact plan. Anything else — unreadable, truncated,
	// unsealed, or fingerprint-mismatched — is deleted so it can never mask
	// a worker failure at merge time.
	done := make([]bool, len(plan.Shards))
	resumed := 0
	for s := range plan.Shards {
		mPath := filepath.Join(workDir, fmt.Sprintf("manifest-%d.json", s))
		m, err := distribute.LoadManifest(mPath)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				fmt.Fprintf(stderr, "distrun: shard %d: discarding unreadable manifest %s (%v); regenerating\n", s, mPath, err)
				os.Remove(mPath)
			}
			continue
		}
		if m.Shard != s {
			fmt.Fprintf(stderr, "distrun: shard %d: manifest %s claims shard %d; discarding and regenerating\n", s, mPath, m.Shard)
			os.Remove(mPath)
			continue
		}
		// A manifest from the other content mode is done work for a run the
		// user is no longer asking for: resuming a -metadata-only run with
		// full content (or vice versa) must regenerate the shard.
		if m.ContentHashed == *metadataOnly {
			fmt.Fprintf(stderr, "distrun: shard %d: manifest is from a %s run, this run wants %s; regenerating\n",
				s, distribute.ContentModeName(m.ContentHashed), distribute.ContentModeName(!*metadataOnly))
			os.Remove(mPath)
			continue
		}
		if err := distribute.VerifyManifest(open, m); err != nil {
			fmt.Fprintf(stderr, "distrun: shard %d: stale manifest (%v); regenerating\n", s, err)
			os.Remove(mPath)
			continue
		}
		// A manifest proves the shard was generated, not that THIS out root
		// still holds it: resuming against a different or cleaned -out with
		// only manifest checks would report success over a hole in the
		// image. Stat every file the shard owns before trusting the skip.
		if err := verifyShardOnDisk(open, s, *outFlag); err != nil {
			fmt.Fprintf(stderr, "distrun: shard %d: verified manifest but %v; regenerating\n", s, err)
			os.Remove(mPath)
			continue
		}
		done[s] = true
		resumed++
	}
	outstanding := len(plan.Shards) - resumed
	if resumed > 0 {
		fmt.Fprintf(stdout, "distrun: resuming: %d of %d shards already verified; launching %d worker processes\n",
			resumed, len(plan.Shards), outstanding)
	} else {
		fmt.Fprintf(stdout, "distrun: plan has %d shards; launching %d worker processes\n", len(plan.Shards), outstanding)
	}

	if outstanding > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sup := &distrunSupervisor{
			open:         open,
			planPath:     planPath,
			workDir:      workDir,
			outRoot:      *outFlag,
			stageRoot:    stageRoot,
			metadataOnly: *metadataOnly,
			jobs:         *gen.jobs,
			retries:      *retriesFlag,
			shardTimeout: *timeoutFlag,
			cancel:       cancel,
			stdout:       stdout,
			stderr:       stderr,
		}
		var wg sync.WaitGroup
		for s := range plan.Shards {
			if done[s] {
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sup.runShard(ctx, s)
			}(s)
		}
		wg.Wait()
		if sup.rootErr != nil {
			if *workFlag != "" {
				fmt.Fprintf(stderr, "distrun: completed shards keep their sealed manifests under %s; re-run with -work %s to resume\n",
					workDir, workDir)
			} else {
				fmt.Fprintf(stderr, "distrun: pass -work <dir> to keep manifests across runs and make failures resumable\n")
			}
			return sup.rootErr
		}
	}

	manifests := make([]*distribute.Manifest, len(plan.Shards))
	for s := range plan.Shards {
		if manifests[s], err = distribute.LoadManifest(filepath.Join(workDir, fmt.Sprintf("manifest-%d.json", s))); err != nil {
			return err
		}
	}
	res, err := distribute.Merge(open, manifests)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "distrun: merged %s\n", res.Image.Summary())
	if res.Digest != "" {
		fmt.Fprintf(stdout, "image digest: sha256:%s\n", res.Digest)
	}
	if *reportFlag != "" {
		if err := writeReportFile(*reportFlag, &res.Report); err != nil {
			return err
		}
	}
	return nil
}

func printDefaultTable(w io.Writer) {
	table := core.DefaultParameterTable()
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "Impressions default parameters (Table 2):")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %s\n", k+":", table[k])
	}
}

// writeJSONFile creates path and streams enc's output into it, surfacing
// the close error (short writes on full disks appear there).
func writeJSONFile(path string, enc func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := enc(f); err != nil {
		return err
	}
	return f.Close()
}

// writeReportFile writes the JSON reproducibility report to path.
func writeReportFile(path string, r *fsimage.Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseSize parses human-friendly sizes like "500MB", "4.55GB", "1048576".
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := float64(1)
	for _, suffix := range []struct {
		text string
		mult float64
	}{
		{"TB", 1 << 40}, {"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1},
	} {
		if strings.HasSuffix(s, suffix.text) {
			mult = suffix.mult
			s = strings.TrimSuffix(s, suffix.text)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return int64(v * mult), nil
}
