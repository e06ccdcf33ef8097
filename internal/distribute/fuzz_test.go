package distribute

import (
	"bytes"
	"errors"
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
