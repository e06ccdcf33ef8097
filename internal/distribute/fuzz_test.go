package distribute

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"impressions/internal/fsimage"
)

// FuzzDecodeManifest: the merge step and the fleet accept manifests from
// any worker, so DecodeManifest must reject arbitrary bytes cleanly — with
// fsimage.ErrManifestIntegrity, never a panic — and any manifest that
// decodes and passes VerifySelf must survive Encode→Decode with the same
// seal. The committed corpus (testdata/fuzz/FuzzDecodeManifest) holds real
// dir, tar-segment, digest-only and metadata-only manifests.
func FuzzDecodeManifest(f *testing.F) {
	for _, seed := range []string{``, `null`, `{}`, `[]`, `{"shard":-1,"file_digests":[{"id":1`, `{"files":1e999}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, fsimage.ErrManifestIntegrity) {
				t.Fatalf("DecodeManifest error %v is not ErrManifestIntegrity", err)
			}
			return
		}
		if m.VerifySelf() != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("Encode of a verified manifest: %v", err)
		}
		back, err := DecodeManifest(&buf)
		if err != nil {
			t.Fatalf("re-decoding an encoded manifest: %v", err)
		}
		if err := back.VerifySelf(); err != nil || back.ManifestSHA256 != m.ManifestSHA256 {
			t.Fatalf("round trip changed the seal: %s -> %s (%v)", m.ManifestSHA256, back.ManifestSHA256, err)
		}
	})
}

// documentSeeds are hand-made envelope fragments every document fuzz
// target starts from, next to the committed real encodings.
var documentSeeds = []string{``, `{}`, `[]`, `{"header":{}`, `{"view":null,"records":[]}`,
	`{"header":{"format_version":3,"shards":[{"index":0,"files":1e9}]},"chunks":[],"trailer":{}}`,
	`{"view":{"format_version":3,"plan":{"format_version":3,"shards":[{"files":99999999}]}},"records":[{"index":0}]}`}

// checkDecodeAllocs fails when decoding data allocated more than the input
// can justify: declared counts in an untrusted header must never size an
// allocation on their own.
func checkDecodeAllocs(t *testing.T, data []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
	}
}

// FuzzDecodePlan: plan documents arrive from other processes (workers,
// the daemon's store), so DecodePlan must reject arbitrary bytes with a
// typed sentinel — never a panic, never an allocation the input does not
// justify — and any plan that decodes must re-encode (through the
// test-only encodePlan oracle) to bytes that decode and re-encode to
// themselves, binding the same fingerprint. The committed corpus
// (testdata/fuzz/FuzzDecodePlan) holds a real plan document.
func FuzzDecodePlan(f *testing.F) {
	for _, seed := range documentSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkPlanDocument)
}

// checkPlanDocument is FuzzDecodePlan's property for one input.
func checkPlanDocument(t *testing.T, data []byte) {
	var p *Plan
	var err error
	checkDecodeAllocs(t, data, func() { p, err = DecodePlan(bytes.NewReader(data)) })
	if err != nil {
		if !isTypedSentinel(err) {
			t.Fatalf("DecodePlan error %v carries no typed sentinel", err)
		}
		return
	}
	var once bytes.Buffer
	if err := encodePlan(p, &once); err != nil {
		t.Fatalf("re-encoding a decoded plan: %v", err)
	}
	back, err := DecodePlan(bytes.NewReader(once.Bytes()))
	if err != nil {
		t.Fatalf("decoding a re-encoded plan: %v", err)
	}
	var twice bytes.Buffer
	if err := encodePlan(back, &twice); err != nil {
		t.Fatalf("re-encoding twice: %v", err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) || back.Fingerprint() != p.Fingerprint() {
		t.Fatal("plan round trip is not a fixpoint")
	}
}

// FuzzDecodeShardView: workers pull shard documents (and plan fragments,
// which are the same document) from the daemon, so DecodeShardView holds
// the same contract as DecodePlan: typed sentinels only, no panic, no
// unjustified allocation, and a view that decodes re-encodes to bytes that
// decode and re-encode to themselves under the same fingerprint. The
// committed corpus (testdata/fuzz/FuzzDecodeShardView) holds a shard view,
// a fragment and a file-less shard.
func FuzzDecodeShardView(f *testing.F) {
	for _, seed := range documentSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkShardDocument)
}

// checkShardDocument is FuzzDecodeShardView's property for one input.
func checkShardDocument(t *testing.T, data []byte) {
	var v *ShardView
	var err error
	checkDecodeAllocs(t, data, func() { v, err = DecodeShardView(bytes.NewReader(data)) })
	if err != nil {
		if !isTypedSentinel(err) {
			t.Fatalf("DecodeShardView error %v carries no typed sentinel", err)
		}
		return
	}
	var once bytes.Buffer
	if err := v.Encode(&once); err != nil {
		t.Fatalf("re-encoding a decoded view: %v", err)
	}
	back, err := DecodeShardView(bytes.NewReader(once.Bytes()))
	if err != nil {
		t.Fatalf("decoding a re-encoded view: %v", err)
	}
	var twice bytes.Buffer
	if err := back.Encode(&twice); err != nil {
		t.Fatalf("re-encoding twice: %v", err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) || back.Plan.Fingerprint() != v.Plan.Fingerprint() {
		t.Fatal("shard view round trip is not a fixpoint")
	}
}
