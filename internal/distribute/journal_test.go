package distribute

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impressions/internal/fsimage"
)

// incrementalOpts returns the standard test options: a small batch size so
// even test shards span several sealed batches.
func incrementalOpts(journal string) IncrementalOptions {
	return IncrementalOptions{JournalPath: journal, BatchFiles: 8}
}

// TestIncrementalMatchesExecuteShardView: the incremental executor is the
// same worker, with a journal — for every shard its sealed manifest must be
// byte-identical to ExecuteShardView's, and the merged digest must match the
// single-process run.
func TestIncrementalMatchesExecuteShardView(t *testing.T) {
	cfg := testConfig()
	_, refDigest, refTreeHash := singleProcessReference(t, cfg)
	open := planRoundTrip(t, cfg, 3)

	outRoot := t.TempDir()
	work := t.TempDir()
	manifests := make([]*Manifest, len(open.Plan.Shards))
	for s := range open.Plan.Shards {
		view, err := open.ShardView(s)
		if err != nil {
			t.Fatalf("ShardView(%d): %v", s, err)
		}
		journal := filepath.Join(work, "journal")
		res, err := ExecuteShardIncremental(view, outRoot, incrementalOpts(journal))
		if err != nil {
			t.Fatalf("ExecuteShardIncremental(%d): %v", s, err)
		}
		if res.ResumedFiles != 0 {
			t.Fatalf("shard %d: fresh run resumed %d files", s, res.ResumedFiles)
		}
		ref, err := executeOpenShard(open, s, t.TempDir(), WorkerOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("ExecuteShardView(%d): %v", s, err)
		}
		if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
			t.Fatalf("shard %d: incremental manifest differs from ExecuteShardView's", s)
		}
		os.Remove(journal)
		manifests[s] = res.Manifest
	}
	merged, err := Merge(open, manifests)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if merged.Digest != refDigest {
		t.Fatalf("digest mismatch: incremental %s, single-process %s", merged.Digest, refDigest)
	}
	treeHash, err := fsimage.HashTree(outRoot)
	if err != nil {
		t.Fatalf("HashTree: %v", err)
	}
	if treeHash != refTreeHash {
		t.Fatalf("tree mismatch: incremental %s, single-process %s", treeHash, refTreeHash)
	}
}

// crashShard runs one shard with an injected crash and returns its view and
// journal path (journal intact, shard partially written).
func crashShard(t *testing.T, open *OpenPlan, shard int, outRoot, journal string, failAfter int) *ShardView {
	t.Helper()
	view, err := open.ShardView(shard)
	if err != nil {
		t.Fatalf("ShardView: %v", err)
	}
	opts := incrementalOpts(journal)
	opts.FailAfterFiles = failAfter
	if _, err := ExecuteShardIncremental(view, outRoot, opts); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("injected crash: got %v, want ErrSimulatedCrash", err)
	}
	return view
}

// TestIncrementalResume: a worker crashing mid-shard resumes from the last
// sealed batch — skipping the proven prefix — and still produces the exact
// manifest a clean run seals.
func TestIncrementalResume(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	res, err := ExecuteShardIncremental(view, outRoot, incrementalOpts(journal))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.ResumedFiles == 0 {
		t.Fatal("resumed run replayed the whole shard; want a non-empty journal prefix skipped")
	}
	if res.ResumedFiles+res.WrittenFiles != len(view.Files) {
		t.Fatalf("resumed %d + wrote %d != shard's %d files", res.ResumedFiles, res.WrittenFiles, len(view.Files))
	}
	ref, err := executeOpenShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("ExecuteShardView: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("resumed manifest differs from a clean run's")
	}
}

// TestIncrementalResumeAfterRepeatedCrashes: every attempt crashes a little
// further in; progress is monotone and the final manifest is still exact.
func TestIncrementalResumeAfterRepeatedCrashes(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view, err := open.ShardView(1)
	if err != nil {
		t.Fatalf("ShardView: %v", err)
	}
	attempts := 0
	for {
		attempts++
		opts := incrementalOpts(journal)
		opts.FailAfterFiles = 16
		res, err := ExecuteShardIncremental(view, outRoot, opts)
		if errors.Is(err, ErrSimulatedCrash) {
			continue
		}
		if err != nil {
			t.Fatalf("attempt %d: %v", attempts, err)
		}
		ref, err := executeOpenShard(open, 1, t.TempDir(), WorkerOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("ExecuteShardView: %v", err)
		}
		if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
			t.Fatal("manifest after repeated crashes differs from a clean run's")
		}
		break
	}
	if attempts < 2 {
		t.Fatalf("crash loop converged in %d attempt(s); the shard is too small to exercise resume", attempts)
	}
}

// TestIncrementalJournalTampered: a journal whose seal chain does not verify
// is discarded wholesale — the shard restarts and still lands on the exact
// manifest.
func TestIncrementalJournalTampered(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	tampered := strings.Replace(string(raw), `"digests":["`, `"digests":["0000`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper pattern did not match the journal")
	}
	if err := os.WriteFile(journal, []byte(tampered), 0o644); err != nil {
		t.Fatalf("writing tampered journal: %v", err)
	}

	res, err := ExecuteShardIncremental(view, outRoot, incrementalOpts(journal))
	if err != nil {
		t.Fatalf("run over tampered journal: %v", err)
	}
	if res.ResumedFiles != 0 {
		t.Fatalf("tampered journal was trusted for %d files; want a full restart", res.ResumedFiles)
	}
	ref, err := executeOpenShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("ExecuteShardView: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after tampered-journal restart differs from a clean run's")
	}
}

// TestIncrementalTornTail: a torn final line — the signature of a crash
// mid-append — costs only the unsealed batch, not the whole journal.
func TestIncrementalTornTail(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	if _, err := f.WriteString(`{"format_version":1,"plan_fingerprint":"torn`); err != nil {
		t.Fatalf("appending torn line: %v", err)
	}
	f.Close()

	res, err := ExecuteShardIncremental(view, outRoot, incrementalOpts(journal))
	if err != nil {
		t.Fatalf("run over torn journal: %v", err)
	}
	if res.ResumedFiles == 0 {
		t.Fatal("torn tail discarded the sealed prefix; want a resume")
	}
	ref, err := executeOpenShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("ExecuteShardView: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after torn-tail resume differs from a clean run's")
	}
}

// TestIncrementalMissingResumedFile: the journal's word is checked against
// the disk — a resumed file that vanished (or changed size) invalidates the
// journal and restarts the shard.
func TestIncrementalMissingResumedFile(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	outRoot := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	view := crashShard(t, open, 0, outRoot, journal, 20)

	// Delete one file the journal claims is done.
	victim := filepath.Join(outRoot, view.Tree.Path(view.Files[0].DirID), view.Files[0].Name)
	if err := os.Remove(victim); err != nil {
		t.Fatalf("removing %s: %v", victim, err)
	}

	res, err := ExecuteShardIncremental(view, outRoot, incrementalOpts(journal))
	if err != nil {
		t.Fatalf("run over stale journal: %v", err)
	}
	if res.ResumedFiles != 0 {
		t.Fatalf("journal trusted %d files despite a missing one; want a full restart", res.ResumedFiles)
	}
	ref, err := executeOpenShard(open, 0, t.TempDir(), WorkerOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("ExecuteShardView: %v", err)
	}
	if res.Manifest.ManifestSHA256 != ref.ManifestSHA256 {
		t.Fatal("manifest after stale-journal restart differs from a clean run's")
	}
}

// TestDigestShardViewMatchesExecute is the executor-equivalence oracle:
// for every shard of one plan, the VFS worker at P=1 and P=4, the tar
// segment worker, the disk-free digest executor (the daemon's inline
// fallback) and a fresh journaled worker all seal the identical manifest,
// and the metadata-only dir and tar workers agree with each other.
func TestDigestShardViewMatchesExecute(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 3)
	executors := []struct {
		name string
		run  func(v *ShardView, metadataOnly bool) (*Manifest, error)
	}{
		{"dir P=1", func(v *ShardView, md bool) (*Manifest, error) {
			return ExecuteShardView(v, t.TempDir(), WorkerOptions{MetadataOnly: md, Parallelism: 1})
		}},
		{"dir P=4", func(v *ShardView, md bool) (*Manifest, error) {
			return ExecuteShardView(v, t.TempDir(), WorkerOptions{MetadataOnly: md, Parallelism: 4})
		}},
		{"tar segment", func(v *ShardView, md bool) (*Manifest, error) {
			return ExecuteShardViewTar(v, io.Discard, WorkerOptions{MetadataOnly: md})
		}},
		{"digest-only", func(v *ShardView, _ bool) (*Manifest, error) {
			return DigestShardView(context.Background(), v, nil)
		}},
		{"journal", func(v *ShardView, _ bool) (*Manifest, error) {
			res, err := ExecuteShardIncremental(v, t.TempDir(), incrementalOpts(filepath.Join(t.TempDir(), "journal")))
			if err != nil {
				return nil, err
			}
			return res.Manifest, nil
		}},
	}
	for s := range open.Plan.Shards {
		view, err := open.ShardView(s)
		if err != nil {
			t.Fatalf("ShardView(%d): %v", s, err)
		}
		var ref *Manifest
		for _, ex := range executors {
			m, err := ex.run(view, false)
			if err != nil {
				t.Fatalf("shard %d %s: %v", s, ex.name, err)
			}
			if !m.ContentHashed || m.Files != len(view.Files) {
				t.Fatalf("shard %d %s: manifest hashed=%t files=%d, want a hashed manifest of %d files", s, ex.name, m.ContentHashed, m.Files, len(view.Files))
			}
			if ref == nil {
				ref = m
			} else if m.ManifestSHA256 != ref.ManifestSHA256 {
				t.Errorf("shard %d: %s manifest %s differs from %s's %s", s, ex.name, m.ManifestSHA256, executors[0].name, ref.ManifestSHA256)
			}
		}
		// Metadata-only: the executors that support it agree, and the
		// manifest carries no content hashes.
		dir, err := executors[0].run(view, true)
		if err != nil {
			t.Fatalf("shard %d metadata-only dir: %v", s, err)
		}
		tar, err := executors[2].run(view, true)
		if err != nil {
			t.Fatalf("shard %d metadata-only tar: %v", s, err)
		}
		if dir.ContentHashed || dir.ManifestSHA256 != tar.ManifestSHA256 {
			t.Errorf("shard %d: metadata-only dir manifest (hashed=%t) %s != tar %s", s, dir.ContentHashed, dir.ManifestSHA256, tar.ManifestSHA256)
		}
	}
}
