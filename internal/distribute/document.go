package distribute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"impressions/internal/fsimage"
)

// Plans and shard documents (which are also plan fragments) share one wire
// envelope:
//
//	{"<head>": header, "<body>": [chunk, ...], "trailer": {"chunks": N, "<seal>": chain}}
//
// The chunks stream metadata records through hash-guarded fsimage.Chunks in
// fixed order, and the trailer seals the stream (chunk count + chain hash,
// known only after the last chunk — which is what lets a fused generation
// pass write the header first and stream the rest). Encoder and decoder
// both buffer O(chunk) bytes, whatever the document's size. A document kind
// differs from another only in its key names and header value.

// docKind names one document kind's members.
type docKind struct {
	head, body, seal string
	// what names the kind in error messages.
	what string
}

var (
	// planDoc is the monolithic plan document; its header is a *Plan.
	planDoc = docKind{head: "header", body: "chunks", seal: "image_sha256", what: "plan"}
	// shardDoc is a single shard's document; its header is a shardWireHeader.
	shardDoc = docKind{head: "view", body: "records", seal: "records_sha256", what: "shard document"}
)

// docHeader is a document's head member: a plan header, or a shard
// document's view header wrapping one. Either names the records-per-chunk
// the stream was sliced by.
type docHeader interface {
	chunkSize() int
}

func (p *Plan) chunkSize() int { return p.ChunkSize }

func (h *shardWireHeader) chunkSize() int {
	if h.Plan == nil {
		return 0
	}
	return h.Plan.ChunkSize
}

// docEncoder writes one document incrementally: newDocEncoder emits the
// header, AddDir/AddFile (promoted from the chunk encoder) stream the
// records in chunks of the header's chunk size, Close seals the trailer.
// After Close, Chunks and ChainHash report the sealed values.
type docEncoder struct {
	*fsimage.ChunkEncoder
	kind docKind
	bw   *bufio.Writer
}

func newDocEncoder(w io.Writer, kind docKind, header docHeader) (*docEncoder, error) {
	bw := bufio.NewWriterSize(w, 64*1024)
	raw, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("distribute: encoding %s header: %w", kind.what, err)
	}
	if _, err := fmt.Fprintf(bw, "{%q:%s,%q:[", kind.head, raw, kind.body); err != nil {
		return nil, fmt.Errorf("distribute: encoding %s: %w", kind.what, err)
	}
	first := true
	enc := fsimage.NewChunkEncoder(header.chunkSize(), func(c *fsimage.Chunk) error {
		raw, err := json.Marshal(c)
		if err != nil {
			return fmt.Errorf("encoding chunk %d: %w", c.Index, err)
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(raw)
		return err
	})
	return &docEncoder{ChunkEncoder: enc, kind: kind, bw: bw}, nil
}

// Close seals the record chunks and writes the trailer.
func (e *docEncoder) Close() error {
	if err := e.ChunkEncoder.Close(); err != nil {
		return fmt.Errorf("distribute: %w", err)
	}
	if _, err := fmt.Fprintf(e.bw, "],\"trailer\":{\"chunks\":%d,%q:%q}}\n", e.Chunks(), e.kind.seal, e.ChainHash()); err != nil {
		return fmt.Errorf("distribute: encoding %s: %w", e.kind.what, err)
	}
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("distribute: encoding %s: %w", e.kind.what, err)
	}
	return nil
}

// decodeDocument reads one document of the given kind from r. The head
// member is decoded into header; open is then called once to validate it
// and return the sink the verified records replay into. Every chunk is
// checked against its integrity hash, its size against the header's chunk
// size (each chunk is full but the last of its record kind, exactly as the
// encoder slices), and the chain against the sealing trailer, whose chunk
// count and chain hash are returned.
//
// Bytes that do not decode are a damaged artifact: every envelope and JSON
// error wraps fsimage.ErrManifestIntegrity. Errors from open and the sink
// pass through unchanged — they carry their own sentinels (a version
// mismatch is ErrPlanVersion, a caller's out-of-range shard
// ErrInvalidSpec, a record that fails validation ErrManifestIntegrity).
func decodeDocument(r io.Reader, kind docKind, header docHeader, open func() (fsimage.RecordSink, error)) (int, string, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 64*1024))
	malformed := func(what string, err error) error {
		return fmt.Errorf("distribute: decoding %s %s: %w (%w)", kind.what, what, err, fsimage.ErrManifestIntegrity)
	}
	member := func(want string) error {
		tok, err := dec.Token()
		if err != nil {
			return malformed("member "+want, err)
		}
		if key, ok := tok.(string); !ok || key != want {
			return fmt.Errorf("distribute: %s has %v where %q belongs — not a v%d document, or truncated (%w)", kind.what, tok, want, FormatVersion, fsimage.ErrManifestIntegrity)
		}
		return nil
	}
	delim := func(want rune) error {
		tok, err := dec.Token()
		if err != nil {
			return malformed(fmt.Sprintf("delimiter %q", want), err)
		}
		if d, ok := tok.(json.Delim); !ok || rune(d) != want {
			return fmt.Errorf("distribute: decoding %s: got %v, want %q (%w)", kind.what, tok, want, fsimage.ErrManifestIntegrity)
		}
		return nil
	}

	if err := delim('{'); err != nil {
		return 0, "", err
	}
	if err := member(kind.head); err != nil {
		return 0, "", err
	}
	if err := dec.Decode(header); err != nil {
		return 0, "", malformed("header", err)
	}
	sink, err := open()
	if err != nil {
		return 0, "", err
	}
	size := header.chunkSize()
	if size < 1 {
		return 0, "", fmt.Errorf("distribute: %s header declares chunk size %d (%w)", kind.what, size, fsimage.ErrManifestIntegrity)
	}
	if err := member(kind.body); err != nil {
		return 0, "", err
	}
	if err := delim('['); err != nil {
		return 0, "", err
	}
	cdec := fsimage.NewChunkDecoder(sink)
	var c fsimage.Chunk
	partial, partialFiles := false, false
	for dec.More() {
		c = fsimage.Chunk{}
		if err := dec.Decode(&c); err != nil {
			return 0, "", malformed(fmt.Sprintf("chunk %d", cdec.Chunks()), err)
		}
		n, files := len(c.Dirs)+len(c.Files), len(c.Files) > 0
		if n == 0 || n > size || (partial && files == partialFiles) {
			return 0, "", fmt.Errorf("distribute: %s chunk %d holds %d records, not sliced by the header's chunk size %d (%w)", kind.what, c.Index, n, size, fsimage.ErrManifestIntegrity)
		}
		partial, partialFiles = n < size, files
		if err := cdec.AddChunk(&c); err != nil {
			return 0, "", fmt.Errorf("distribute: %w", err)
		}
	}
	if err := delim(']'); err != nil {
		return 0, "", err
	}
	if err := member("trailer"); err != nil {
		return 0, "", err
	}
	var tr map[string]json.RawMessage
	if err := dec.Decode(&tr); err != nil {
		return 0, "", malformed("trailer", err)
	}
	if err := delim('}'); err != nil {
		return 0, "", err
	}
	var chunks int
	var seal string
	if err := json.Unmarshal(tr["chunks"], &chunks); err != nil {
		return 0, "", malformed("trailer chunks", err)
	}
	if err := json.Unmarshal(tr[kind.seal], &seal); err != nil {
		return 0, "", malformed("trailer "+kind.seal, err)
	}
	if cdec.Chunks() != chunks {
		return 0, "", fmt.Errorf("distribute: %s trailer promises %d chunks, stream carried %d — truncated? (%w)", kind.what, chunks, cdec.Chunks(), fsimage.ErrManifestIntegrity)
	}
	if got := cdec.ChainHash(); got != seal {
		return 0, "", fmt.Errorf("distribute: %s chain hash mismatch: trailer says %s, chunks chain to %s (%w)", kind.what, seal, got, fsimage.ErrManifestIntegrity)
	}
	return chunks, seal, nil
}
