package distribute

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// The wire-format golden pins FormatVersion 3 byte for byte: a plan
// document and one of its shard documents, committed under testdata/wire.
// Any codec change that alters a single wire byte fails here before it can
// strand plans, fragments or manifests written by an earlier build.
const (
	goldenShards    = 3
	goldenShard     = 1
	goldenChunkSize = 64
)

func goldenRequest() PlanRequest {
	return PlanRequest{Config: testConfig(), MaxShards: goldenShards, ChunkSize: goldenChunkSize}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWireFormatGolden: Stream reproduces the committed plan bytes; the
// pruned decode re-encoded and the partitioned planner both reproduce the
// committed shard bytes; and both documents bind the same fingerprint.
func TestWireFormatGolden(t *testing.T) {
	planDoc := readGolden(t, "plan.json")
	shardDoc := readGolden(t, "shard1.json")

	var streamed bytes.Buffer
	if _, err := goldenRequest().Stream(context.Background(), &streamed); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), planDoc) {
		t.Errorf("Stream bytes differ from testdata/wire/plan.json (%d vs %d bytes)", streamed.Len(), len(planDoc))
	}

	view, err := DecodePlanShard(bytes.NewReader(planDoc), goldenShard)
	if err != nil {
		t.Fatalf("DecodePlanShard: %v", err)
	}
	var sliced bytes.Buffer
	if err := view.Encode(&sliced); err != nil {
		t.Fatalf("ShardView.Encode: %v", err)
	}
	if !bytes.Equal(sliced.Bytes(), shardDoc) {
		t.Errorf("sliced shard bytes differ from testdata/wire/shard1.json (%d vs %d bytes)", sliced.Len(), len(shardDoc))
	}

	req := goldenRequest()
	req.Partition = goldenShards
	_, frags := fragmentBuffers(t, req)
	if !bytes.Equal(frags[goldenShard], shardDoc) {
		t.Errorf("PartitionPlan fragment %d differs from testdata/wire/shard1.json", goldenShard)
	}

	plan, err := DecodePlan(bytes.NewReader(planDoc))
	if err != nil {
		t.Fatalf("DecodePlan: %v", err)
	}
	decoded, err := DecodeShardView(bytes.NewReader(shardDoc))
	if err != nil {
		t.Fatalf("DecodeShardView: %v", err)
	}
	if plan.Fingerprint() != decoded.Plan.Fingerprint() {
		t.Errorf("plan fingerprint %s != shard document fingerprint %s", plan.Fingerprint(), decoded.Plan.Fingerprint())
	}
}
