package fsimage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"impressions/internal/parallel"
)

// DigestVersion names the canonical image-digest formula. It is part of the
// distributed pipeline's wire contract: shard manifests carry per-file
// content hashes, the merge step combines them with CombineDigest, and the
// result must equal Digest computed by a single process. Bump the version if
// the formula ever changes.
const DigestVersion = "impressions-image-digest-v1"

// ContentDigests returns the SHA-256 (hex) of every file's generated
// content, indexed by file ID, without touching disk: each file's generator
// writes straight into a hash. The per-file RNG streams are exactly the ones
// Materialize uses, so digests[i] is the hash of the bytes Materialize would
// write for file i.
func (img *Image) ContentDigests(opts MaterializeOptions) ([]string, error) {
	opts = opts.normalized(img)
	digests := make([]string, len(img.Files))
	var (
		mu      sync.Mutex
		firstEr error
	)
	// Chunks scale with the worker count (per-file streams are ID-keyed, so
	// boundaries are free to move); a fixed 4096-file chunk would hash any
	// smaller image serially.
	ctx := opts.ctx()
	parallel.RunChunks(opts.Parallelism, len(img.Files), func(lo, hi int) {
		mu.Lock()
		failed := firstEr != nil
		mu.Unlock()
		if failed {
			return
		}
		cw := NewContentWriter(opts.Registry, opts.Seed)
		for _, f := range img.Files[lo:hi] {
			err := ctx.Err()
			if err == nil {
				digests[f.ID], err = cw.GenerateSum(nil, f)
			}
			if err != nil {
				mu.Lock()
				if firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
				return
			}
		}
	})
	if firstEr != nil {
		return nil, firstEr
	}
	return digests, nil
}

// Digest computes the canonical SHA-256 of the image: directory paths in ID
// order, then every file's path, size and content hash in ID order. Two
// images with equal digests materialize to byte-identical trees. It is
// computed without touching disk; the distributed merge step reproduces the
// same value from shard manifests via CombineDigest.
func (img *Image) Digest(opts MaterializeOptions) (string, error) {
	digests, err := img.ContentDigests(opts)
	if err != nil {
		return "", err
	}
	return CombineDigest(img, digests)
}

// CombineDigest folds per-file content hashes (indexed by file ID, as
// returned by ContentDigests or collected from shard manifests) into the
// canonical image digest.
func CombineDigest(img *Image, fileDigests []string) (string, error) {
	if len(fileDigests) != len(img.Files) {
		return "", fmt.Errorf("fsimage: %d file digests for %d files", len(fileDigests), len(img.Files))
	}
	b := NewDigestBuilder(img.DirCount(), img.FileCount(), img.TotalBytes(), func(f File) (string, error) {
		if fileDigests[f.ID] == "" {
			return "", fmt.Errorf("fsimage: missing content digest for file %d", f.ID)
		}
		return fileDigests[f.ID], nil
	})
	if err := img.StreamRecords(b); err != nil {
		return "", err
	}
	return b.Sum()
}

// DigestBuilder computes the canonical image digest (the Digest /
// CombineDigest formula, DigestVersion) from a record stream, holding only
// the compact directory tree — never the file records. The expected totals
// are part of the digest header, so they must be known up front (plan
// headers and images both carry them); Sum fails if the stream did not
// deliver exactly those totals. content supplies each file's content hash
// (from a manifest, a precomputed table, or inline generation).
type DigestBuilder struct {
	ts        TreeSink
	h         hash.Hash
	content   func(File) (string, error)
	wantDirs  int
	wantFiles int
	wantBytes int64
}

// NewDigestBuilder starts a streaming digest over an image promising the
// given totals.
func NewDigestBuilder(dirs, files int, bytes int64, content func(File) (string, error)) *DigestBuilder {
	h := sha256.New()
	fmt.Fprintf(h, "%s\ndirs:%d files:%d bytes:%d\n", DigestVersion, dirs, files, bytes)
	return &DigestBuilder{h: h, content: content, wantDirs: dirs, wantFiles: files, wantBytes: bytes}
}

// AddDir folds the next directory record into the digest.
func (b *DigestBuilder) AddDir(d DirRecord) error {
	if err := b.ts.AddDir(d); err != nil {
		return err
	}
	fmt.Fprintf(b.h, "D %s\n", b.ts.Tree().Path(d.ID))
	return nil
}

// AddFile folds the next file record (path, size, content hash) into the
// digest.
func (b *DigestBuilder) AddFile(f File) error {
	if err := b.ts.AddFile(f); err != nil {
		return err
	}
	sum, err := b.content(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.h, "F %s %d %s\n", filePathIn(b.ts.Tree(), f), f.Size, sum)
	return nil
}

// Sum returns the canonical digest, verifying the stream delivered exactly
// the totals promised to NewDigestBuilder.
func (b *DigestBuilder) Sum() (string, error) {
	if b.ts.DirCount() != b.wantDirs || b.ts.FileCount() != b.wantFiles || b.ts.TotalBytes() != b.wantBytes {
		return "", fmt.Errorf("fsimage: digest stream carried %d dirs, %d files, %d bytes; header promised %d, %d, %d",
			b.ts.DirCount(), b.ts.FileCount(), b.ts.TotalBytes(), b.wantDirs, b.wantFiles, b.wantBytes)
	}
	return hex.EncodeToString(b.h.Sum(nil)), nil
}

// HashTree computes a canonical SHA-256 over a real directory tree: every
// entry in sorted relative-path order, directories as "D path", files as
// "F path size contenthash". Two roots hash equal iff they hold the same
// tree with byte-identical file contents, so it is the on-disk counterpart
// of Digest for verifying that a distributed materialization produced
// exactly the single-process tree.
func HashTree(root string) (string, error) {
	type entry struct {
		rel   string
		isDir bool
		size  int64
		sum   string
	}
	var entries []entry
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			return nil
		}
		if d.IsDir() {
			entries = append(entries, entry{rel: rel, isDir: true})
			return nil
		}
		fh, oerr := os.Open(path)
		if oerr != nil {
			return oerr
		}
		defer fh.Close()
		h.Reset()
		n, cerr := io.Copy(h, fh)
		if cerr != nil {
			return cerr
		}
		entries = append(entries, entry{rel: rel, size: n, sum: hex.EncodeToString(h.Sum(nil))})
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("fsimage: hashing tree %q: %w", root, err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].rel < entries[j].rel })
	top := sha256.New()
	fmt.Fprintf(top, "impressions-tree-hash-v1\n")
	for _, e := range entries {
		if e.isDir {
			fmt.Fprintf(top, "D %s\n", e.rel)
		} else {
			fmt.Fprintf(top, "F %s %d %s\n", e.rel, e.size, e.sum)
		}
	}
	return hex.EncodeToString(top.Sum(nil)), nil
}
