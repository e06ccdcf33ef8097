package distribute

import (
	"fmt"
	"io"

	"impressions/internal/content"
	"impressions/internal/fsimage"
	"impressions/internal/imgfmt"
)

// The tar execution path: the same shard contract as ExecuteShardView, but
// each worker serializes its shard as a tar segment (sequential writes into
// one file or pipe) instead of materializing O(shard) files through the
// VFS. A deterministic stitch then merges the segments into the
// byte-identical monolithic archive the single-process tar sink writes.

// ExecuteShardViewTar serializes one shard's view as a tar segment onto w
// and returns the sealed manifest — identical in shape and digests to the
// VFS worker's, so the existing merge/verify machinery accepts tar workers
// unchanged. Segments are inherently sequential, so WorkerOptions.
// Parallelism is ignored; determinism makes the bytes identical either
// way.
func ExecuteShardViewTar(v *ShardView, w io.Writer, opts WorkerOptions) (*Manifest, error) {
	return executeShard(v, opts.MetadataOnly, nil, func(reg *content.Registry, digests []string) (int64, error) {
		iopts := imgfmt.Options{
			Registry:     reg,
			Seed:         v.Plan.Seed,
			MetadataOnly: opts.MetadataOnly,
			Context:      opts.Context,
		}
		if digests != nil {
			// WriteSegment emits v.Files in order, so a cursor indexes the
			// shard-local digest slot.
			pos := 0
			iopts.OnDigest = func(_ fsimage.File, sum string) {
				digests[pos] = sum
				pos++
			}
		}
		return imgfmt.WriteSegment(w, v.Tree, v.Dirs, v.Files, iopts)
	})
}

// StitchPlanTar replays a plan document and merges per-shard tar segments
// (one reader per shard, in shard order) into the monolithic archive on w
// — byte-identical to a single-process tar serialization of the same plan.
// Content bytes are copied from the segments, never regenerated; every
// entry is verified against the plan stream, so a segment from a different
// plan or seed fails with fsimage.ErrManifestIntegrity.
func StitchPlanTar(planR io.Reader, segments []io.Reader, w io.Writer, opts imgfmt.Options) (*Plan, error) {
	var st *imgfmt.Stitcher
	p, err := decodePlanDocument(planR, func(hdr *Plan) (fsimage.RecordSink, error) {
		roots, err := hdr.validateShardTable()
		if err != nil {
			return nil, err
		}
		opts.Seed = hdr.Seed
		st, err = imgfmt.NewStitcher(w, segments, roots, opts)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	return p, st.Close()
}

// WritePlanTar regenerates a plan's full image as one monolithic tar on w
// and returns the plan and the canonical image digest (empty with
// MetadataOnly — there is no content to attest). registry, when non-nil,
// supplies the content registry for the plan's kind (the daemon passes its
// warm cache); otherwise a fresh registry is built.
func WritePlanTar(planR io.Reader, w io.Writer, opts imgfmt.Options, registry func(kind string) *content.Registry) (*Plan, string, error) {
	var sink *imgfmt.TarSink
	var db *fsimage.DigestBuilder
	p, err := decodePlanDocument(planR, func(hdr *Plan) (fsimage.RecordSink, error) {
		if registry != nil {
			opts.Registry = registry(hdr.ContentKind)
		} else if opts.Registry == nil {
			opts.Registry = content.NewRegistry(content.Kind(hdr.ContentKind))
		}
		opts.Seed = hdr.Seed
		if opts.MetadataOnly {
			sink = imgfmt.NewTarSink(w, opts)
			return sink, nil
		}
		// The digest builder runs behind the tar sink in the fan-out, so
		// each file's OnDigest observation lands before the builder folds
		// that file in.
		var last string
		prev := opts.OnDigest
		opts.OnDigest = func(f fsimage.File, sum string) {
			last = sum
			if prev != nil {
				prev(f, sum)
			}
		}
		sink = imgfmt.NewTarSink(w, opts)
		db = fsimage.NewDigestBuilder(hdr.Dirs, hdr.Files, hdr.Bytes, func(f fsimage.File) (string, error) {
			if last == "" {
				return "", fmt.Errorf("distribute: no content digest observed for file %d", f.ID)
			}
			return last, nil
		})
		return fsimage.MultiSink(sink, db), nil
	})
	if err != nil {
		return nil, "", err
	}
	if err := sink.Close(); err != nil {
		return nil, "", err
	}
	if db == nil {
		return p, "", nil
	}
	digest, err := db.Sum()
	if err != nil {
		return nil, "", err
	}
	return p, digest, nil
}
