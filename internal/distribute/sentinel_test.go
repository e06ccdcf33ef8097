package distribute

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"impressions/internal/core"
	"impressions/internal/fsimage"
)

// TestShardViewOutOfRangeIsInvalidSpec pins the typed-sentinel contract for
// a caller-fixable input: asking a plan for a shard it does not have must
// be dispatchable with errors.Is (the serving layer maps ErrInvalidSpec to
// HTTP 400), not by matching message text.
func TestShardViewOutOfRangeIsInvalidSpec(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	for _, shard := range []int{-1, 2, 99} {
		_, err := open.ShardView(shard)
		if err == nil {
			t.Fatalf("ShardView(%d) succeeded on a 2-shard plan", shard)
		}
		if !errors.Is(err, fsimage.ErrInvalidSpec) {
			t.Errorf("ShardView(%d) = %v; want errors.Is(err, fsimage.ErrInvalidSpec)", shard, err)
		}
		if errors.Is(err, fsimage.ErrManifestIntegrity) {
			t.Errorf("ShardView(%d) = %v; a bad request must not read as an integrity failure", shard, err)
		}
	}
}

// TestVerifyManifestTamperIsManifestIntegrity pins the sentinel on the
// merge gate: a manifest whose counts contradict the plan must surface
// ErrManifestIntegrity (HTTP 500, never retried as a client error).
func TestVerifyManifestTamperIsManifestIntegrity(t *testing.T) {
	open := planRoundTrip(t, testConfig(), 2)
	view, err := open.ShardView(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExecuteShardView(view, t.TempDir(), WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyManifest(open, m); err != nil {
		t.Fatalf("pristine manifest failed verification: %v", err)
	}
	m.Files++
	err = VerifyManifest(open, m)
	if err == nil {
		t.Fatal("tampered manifest passed verification")
	}
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Errorf("tampered manifest surfaced %v; want errors.Is(err, fsimage.ErrManifestIntegrity)", err)
	}
}

// tinyPlanRequest is a plan small enough to cut at every byte offset: a
// handful of files over a dozen directories, many chunks, three shards.
func tinyPlanRequest() PlanRequest {
	return PlanRequest{
		Config:    core.Config{NumFiles: 24, NumDirs: 12, FSSizeBytes: 24 * 512, Seed: 5, Parallelism: 1},
		MaxShards: 3,
		ChunkSize: 8,
	}
}

// isTypedSentinel reports whether err carries one of the public sentinels.
func isTypedSentinel(err error) bool {
	return errors.Is(err, fsimage.ErrManifestIntegrity) || errors.Is(err, fsimage.ErrPlanVersion) || errors.Is(err, fsimage.ErrInvalidSpec)
}

// TestTruncatedDocumentsAreIntegrityErrors cuts a plan document and a
// shard document at every byte offset short of the closing brace. Every
// decoder must refuse each cut with ErrManifestIntegrity — a truncated
// artifact is damaged, however far the JSON got.
func TestTruncatedDocumentsAreIntegrityErrors(t *testing.T) {
	_, planDoc := streamPlan(t, tinyPlanRequest())
	view, err := DecodePlanShard(bytes.NewReader(planDoc), 1)
	if err != nil {
		t.Fatal(err)
	}
	var shardDoc bytes.Buffer
	if err := view.Encode(&shardDoc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		doc    []byte
		decode func(io.Reader) error
	}{
		{"DecodePlan", planDoc, func(r io.Reader) error { _, err := DecodePlan(r); return err }},
		{"DecodePlanShard", planDoc, func(r io.Reader) error { _, err := DecodePlanShard(r, 1); return err }},
		{"DecodeShardView", shardDoc.Bytes(), func(r io.Reader) error { _, err := DecodeShardView(r); return err }},
	} {
		whole := bytes.TrimSuffix(tc.doc, []byte("\n"))
		if err := tc.decode(bytes.NewReader(whole)); err != nil {
			t.Fatalf("%s: whole document rejected: %v", tc.name, err)
		}
		for cut := 0; cut < len(whole); cut++ {
			err := tc.decode(bytes.NewReader(whole[:cut]))
			if !errors.Is(err, fsimage.ErrManifestIntegrity) {
				t.Fatalf("%s: document cut at %d of %d bytes: got %v, want ErrManifestIntegrity", tc.name, cut, len(whole), err)
			}
		}
	}
}

// TestShardDocumentDeclaredCountBoundsAllocation: a shard document whose
// header declares a huge file count must not make the decoder allocate for
// it — the records that actually arrive bound the retained slice.
func TestShardDocumentDeclaredCountBoundsAllocation(t *testing.T) {
	_, planDoc := streamPlan(t, tinyPlanRequest())
	view, err := DecodePlanShard(bytes.NewReader(planDoc), 1)
	if err != nil {
		t.Fatal(err)
	}
	view.Plan.Shards[1].Files = 1 << 30
	var doc bytes.Buffer
	if err := view.Encode(&doc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeShardView(bytes.NewReader(doc.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, fsimage.ErrManifestIntegrity) {
		t.Fatalf("inflated file count: got %v, want ErrManifestIntegrity", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("decoding a %d-byte document allocated %d bytes", doc.Len(), got)
	}
}
