package distribute

import (
	"bytes"
	"io"
	"testing"

	"impressions/internal/imgfmt"
)

// encodedTarPlan streams a plan for the test config, returning the
// document bytes and the decoded, opened plan.
func encodedTarPlan(t *testing.T, shards int) ([]byte, *OpenPlan) {
	t.Helper()
	_, encoded := streamPlan(t, PlanRequest{Config: testConfig(), MaxShards: shards, ChunkSize: 64})
	plan, err := DecodePlan(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	open, err := plan.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return encoded, open
}

// TestTarWorkersStitchMatchesMonolithic is the tar counterpart of the
// headline invariant: plan → K tar-segment workers → stitch produces the
// byte-identical archive a single process serializes from the same plan,
// for K ∈ {1, 2, 4}, and the workers' manifests merge to the single-process
// canonical digest.
func TestTarWorkersStitchMatchesMonolithic(t *testing.T) {
	cfg := testConfig()
	_, refDigest, _ := singleProcessReference(t, cfg)

	for _, k := range []int{1, 2, 4} {
		doc, open := encodedTarPlan(t, k)

		var mono bytes.Buffer
		_, digest, err := WritePlanTar(bytes.NewReader(doc), &mono, imgfmt.Options{}, nil)
		if err != nil {
			t.Fatalf("K=%d: WritePlanTar: %v", k, err)
		}
		if digest != refDigest {
			t.Errorf("K=%d: monolithic tar digest %s, reference %s", k, digest, refDigest)
		}

		shards := len(open.Plan.Shards)
		segments := make([]io.Reader, shards)
		manifests := make([]*Manifest, shards)
		for s := 0; s < shards; s++ {
			v, err := open.ShardView(s)
			if err != nil {
				t.Fatalf("K=%d: ShardView(%d): %v", k, s, err)
			}
			var seg bytes.Buffer
			m, err := ExecuteShardViewTar(v, &seg, WorkerOptions{})
			if err != nil {
				t.Fatalf("K=%d: ExecuteShardViewTar(%d): %v", k, s, err)
			}
			segments[s] = bytes.NewReader(seg.Bytes())
			manifests[s] = m
		}

		var stitched bytes.Buffer
		if _, err := StitchPlanTar(bytes.NewReader(doc), segments, &stitched, imgfmt.Options{}); err != nil {
			t.Fatalf("K=%d: StitchPlanTar: %v", k, err)
		}
		if !bytes.Equal(stitched.Bytes(), mono.Bytes()) {
			t.Errorf("K=%d: stitched tar (%d bytes) differs from monolithic (%d bytes)", k, stitched.Len(), mono.Len())
		}

		// Tar workers seal ordinary manifests: the existing merge accepts
		// them and reproduces the canonical digest.
		res, err := Merge(open, manifests)
		if err != nil {
			t.Fatalf("K=%d: Merge: %v", k, err)
		}
		if res.Digest != refDigest {
			t.Errorf("K=%d: merged tar-worker digest %s, reference %s", k, res.Digest, refDigest)
		}
	}
}

// TestWritePlanTarMetadataOnly: the metadata-only archive keeps entry sizes
// but reports no digest.
func TestWritePlanTarMetadataOnly(t *testing.T) {
	doc, _ := encodedTarPlan(t, 2)
	var out bytes.Buffer
	p, digest, err := WritePlanTar(bytes.NewReader(doc), &out, imgfmt.Options{MetadataOnly: true}, nil)
	if err != nil {
		t.Fatalf("WritePlanTar: %v", err)
	}
	if digest != "" {
		t.Errorf("metadata-only run produced digest %q", digest)
	}
	if out.Len() == 0 {
		t.Error("metadata-only archive is empty")
	}
	if p.Files == 0 {
		t.Error("decoded plan reports zero files")
	}
}
