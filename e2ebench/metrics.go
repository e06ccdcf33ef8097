package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported number's name and unit.
type metric struct {
	name string
	unit string
}

// endToEnd are the untraced run's metrics, what a user running one image
// build sees, each a median over the run's images: files and content MB per
// wall second from spec to verified image; the image process's peak RSS;
// bytes left in the output (plan documents, fragments, segments, image) per
// content byte; and set-up time, from starting an image's process to its
// timed region.
var endToEnd = []metric{
	{"files_per_s", "1/s"},
	{"mb_per_s", "MB/s"},
	{"peak_rss_mb", "MB"},
	{"write_amp", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. Which end-to-end metric each
// should move, and on which workload:
//
//   - core.*, namespace.*, constraint.*: files_per_s on metadata-partitioned,
//     never bigfiles-dir.
//   - distribute.plan_*: files_per_s and write_amp on metadata-partitioned.
//   - distribute.decode_*: files_per_s on smallfiles-tar and
//     metadata-partitioned.
//   - distribute.exec_*: mb_per_s on bigfiles-dir, files_per_s on
//     smallfiles-tar.
//   - content.*, fsimage.vfs_self_s: mb_per_s on bigfiles-dir.
//   - imgfmt.stitch_*: files_per_s on smallfiles-tar and nothing elsewhere.
//   - distribute.merge_*: files_per_s and peak_rss_mb on
//     metadata-partitioned and smallfiles-tar.
//   - runtime.*: any allocation cut shows here first.
//
// A layer a workload does not run (the stitch outside smallfiles-tar, the
// VFS outside bigfiles-dir) reports 0.
var perLayer = []metric{
	{"core.metadata_s", "s"},
	{"namespace.tree_s", "s"},
	{"constraint.sizes_s", "s"},
	{"core.extensions_s", "s"},
	{"core.placement_s", "s"},
	{"constraint.oversamples", "count"},
	{"distribute.plan_s", "s"},
	{"distribute.plan_bytes", "B"},
	{"distribute.plan_allocs_per_file", "allocs/file"},
	{"distribute.decode_s", "s"},
	{"distribute.decode_allocs_per_file", "allocs/file"},
	{"distribute.decode_useful_frac", "ratio"},
	{"distribute.exec_s", "s"},
	{"distribute.exec_mb_per_s", "MB/s"},
	{"distribute.exec_allocs_per_file", "allocs/file"},
	{"content.gen_mb_per_s", "MB/s"},
	{"content.hash_mb_per_s", "MB/s"},
	{"fsimage.vfs_self_s", "s"},
	{"imgfmt.stitch_s", "s"},
	{"imgfmt.stitch_mb_per_s", "MB/s"},
	{"imgfmt.stitch_alloc_bytes_per_file", "B/file"},
	{"distribute.merge_s", "s"},
	{"distribute.merge_allocs_per_file", "allocs/file"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"ceiling.memmove_mb_per_s", "MB/s"},
	{"ceiling.sha256_mb_per_s", "MB/s"},
	{"ceiling.seqwrite_mb_per_s", "MB/s"},
	{"content.gen_pct_of_memmove", "%"},
	{"content.hash_pct_of_sha256", "%"},
	{"imgfmt.stitch_pct_of_seqwrite", "%"},
	{"trace.overhead_pct", "%"},
}

// spanTotals sums a span name's durations or one of its args.
type spanTotals []Span

func (ss spanTotals) seconds(name string) float64 {
	var t float64
	for _, s := range ss {
		if s.Name == name {
			t += s.seconds()
		}
	}
	return t
}

func (ss spanTotals) arg(name, arg string) float64 {
	var t float64
	for _, s := range ss {
		if s.Name == name {
			t += s.Args[arg]
		}
	}
	return t
}

// mbPerS is a span name's total "bytes" arg per second, in MB/s.
func (ss spanTotals) mbPerS(name string) float64 {
	return div(ss.arg(name, "bytes")/1e6, ss.seconds(name))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives one traced iteration's per-layer metrics from its
// spans. The ceiling percentages and the tracing overhead need the whole
// run and are filled in by the caller.
func layerMetrics(spans []Span, pipe pipeline) map[string]float64 {
	ss := spanTotals(spans)
	files := ss.arg("pipeline", "files")
	m := map[string]float64{
		"core.metadata_s":                    ss.seconds("core.metadata"),
		"namespace.tree_s":                   ss.seconds("namespace.tree"),
		"constraint.sizes_s":                 ss.seconds("constraint.sizes"),
		"core.extensions_s":                  ss.seconds("core.extensions"),
		"core.placement_s":                   ss.seconds("core.placement"),
		"constraint.oversamples":             ss.arg("core.metadata", "oversamples"),
		"distribute.plan_s":                  ss.seconds("distribute.plan"),
		"distribute.plan_bytes":              ss.arg("distribute.plan", "bytes"),
		"distribute.plan_allocs_per_file":    div(ss.arg("distribute.plan", "allocs"), files),
		"distribute.decode_s":                ss.seconds("distribute.decode"),
		"distribute.decode_allocs_per_file":  div(ss.arg("distribute.decode", "allocs"), files),
		"distribute.decode_useful_frac":      div(ss.arg("distribute.decode", "files"), ss.arg("distribute.decode", "streamed_files")),
		"distribute.exec_s":                  ss.seconds("distribute.exec"),
		"distribute.exec_mb_per_s":           ss.mbPerS("distribute.exec"),
		"distribute.exec_allocs_per_file":    div(ss.arg("distribute.exec", "allocs"), files),
		"content.gen_mb_per_s":               ss.mbPerS("content.gen"),
		"content.hash_mb_per_s":              ss.mbPerS("content.hash"),
		"imgfmt.stitch_s":                    ss.seconds("imgfmt.stitch"),
		"imgfmt.stitch_mb_per_s":             ss.mbPerS("imgfmt.stitch"),
		"imgfmt.stitch_alloc_bytes_per_file": div(ss.arg("imgfmt.stitch", "alloc_bytes"), files),
		"distribute.merge_s":                 ss.seconds("distribute.merge"),
		"distribute.merge_allocs_per_file":   div(ss.arg("distribute.merge", "allocs"), files),
		"runtime.gc_cpu_frac":                div(ss.arg("pipeline", "gc_cpu_s"), ss.arg("pipeline", "total_cpu_s")),
		"runtime.alloc_mb":                   ss.arg("pipeline", "heap_alloc_bytes") / 1e6,
		"fsimage.vfs_self_s":                 0,
	}
	if pipe == pipeDir {
		m["fsimage.vfs_self_s"] = ss.seconds("distribute.exec") - ss.seconds("content.hash_parallel")
	}
	return m
}

// addCeilingShares fills in the ceiling metrics measured by the parent
// process (spans "ceiling.*") and each throughput layer's share of its
// ceiling.
func addCeilingShares(m map[string]float64, ceilings []Span) {
	ss := spanTotals(ceilings)
	m["ceiling.memmove_mb_per_s"] = ss.mbPerS("ceiling.memmove")
	m["ceiling.sha256_mb_per_s"] = ss.mbPerS("ceiling.sha256")
	m["ceiling.seqwrite_mb_per_s"] = ss.mbPerS("ceiling.seqwrite")
	m["content.gen_pct_of_memmove"] = 100 * div(m["content.gen_mb_per_s"], m["ceiling.memmove_mb_per_s"])
	m["content.hash_pct_of_sha256"] = 100 * div(m["content.hash_mb_per_s"], m["ceiling.sha256_mb_per_s"])
	m["imgfmt.stitch_pct_of_seqwrite"] = 100 * div(m["imgfmt.stitch_mb_per_s"], m["ceiling.seqwrite_mb_per_s"])
}

// measureCeilings records what this box and file system can do, as spans
// of tr: memmove (Go's copy) and sha256 over an in-memory buffer, and
// sequential 1 MiB writes of a file in dir, each three times.
func measureCeilings(tr *tracer, dir string) error {
	const size = 64 << 20
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*7 + i>>13)
	}
	dst := make([]byte, size)
	for range 3 {
		_ = tr.span("ceiling.memmove", func() (map[string]float64, error) {
			const reps = 4
			for range reps {
				copy(dst, src)
			}
			return map[string]float64{"bytes": reps * size}, nil
		})
		_ = tr.span("ceiling.sha256", func() (map[string]float64, error) {
			sha256.Sum256(src)
			return map[string]float64{"bytes": size}, nil
		})
	}
	path := filepath.Join(dir, "ceiling-seqwrite")
	defer os.Remove(path)
	for range 3 {
		if err := tr.span("ceiling.seqwrite", func() (map[string]float64, error) {
			const reps = 2
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			for range reps * size >> 20 {
				if _, err := f.Write(src[:1<<20]); err != nil {
					f.Close()
					return nil, err
				}
			}
			return map[string]float64{"bytes": reps * size}, f.Close()
		}); err != nil {
			return err
		}
	}
	return nil
}

// breakdown renders one traced iteration's "where did the time go" row:
// each pipeline layer's self time as a share of the pipeline's wall time,
// next to its throughput as a share of the ceiling that bounds it.
func breakdown(w io.Writer, name string, spans []Span, m map[string]float64) {
	root := lastIndex(spans, "pipeline")
	if root < 0 {
		return
	}
	wall := spans[root].seconds()
	self := selfSeconds(spans)
	shares := map[string]float64{}
	var order []string
	for i, s := range spans {
		if s.Parent != root {
			continue
		}
		if _, ok := shares[s.Name]; !ok {
			order = append(order, s.Name)
		}
		shares[s.Name] += self[i]
	}
	ceiling := map[string]string{
		"distribute.exec": fmt.Sprintf("content.gen %.0f%% of memmove, content.hash %.0f%% of sha256",
			m["content.gen_pct_of_memmove"], m["content.hash_pct_of_sha256"]),
		"imgfmt.stitch": fmt.Sprintf("%.0f%% of seqwrite", m["imgfmt.stitch_pct_of_seqwrite"]),
	}
	cells := []string{fmt.Sprintf("wall %.3fs", wall)}
	for _, name := range order {
		cell := fmt.Sprintf("%s %.1f%%", name, 100*shares[name]/wall)
		if c, ok := ceiling[name]; ok {
			cell += " (" + c + ")"
		}
		cells = append(cells, cell)
	}
	cells = append(cells, fmt.Sprintf("other %.1f%%", 100*self[root]/wall))
	fmt.Fprintf(w, "breakdown %s: %s\n", name, strings.Join(cells, " | "))
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
