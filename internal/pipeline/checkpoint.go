package pipeline

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/corpus"
	"repro/internal/envelope"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Checkpoint shards reuse the model v2 integrity envelope (length header +
// CRC64 trailer) under their own magic, so a truncated or bit-flipped shard
// is rejected on resume instead of silently corrupting the build.
//
// CK/2 replaced the Algorithm-R reservoir fields with bottom-k sample
// entries (per-column selection priority + values). CK/1 shards fail the
// magic check and are treated like any other unreadable shard: resume falls
// back past them, and if nothing valid remains the operator is told to
// clear the directory.
var ckptMagic = []byte("AUTODETECT-CK/2\n")

// maxCheckpointPayload caps the declared payload length of a checkpoint or
// shard.
const maxCheckpointPayload = 1 << 32

// checkpoint is the durable state of a partially-built corpus pass: the
// merged statistics shard over columns [0, columns), the distant-supervision
// sample entries at the same boundary, and the fingerprint of
// (source, config) the build is only valid for.
type checkpoint struct {
	fingerprint string
	columns     uint64
	values      uint64
	entries     []sampleEntry
	stats       []*stats.LanguageStats
	// workers is how many languages marshal serializes at once; it is
	// not persisted.
	workers int
}

// splitmix64 is the finalizer used for sample priorities and retry jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildFingerprint ties a checkpoint or shard to the source content and to
// every configuration knob that shapes the counting stage or the sample.
// Worker count and checkpoint cadence are deliberately excluded: a build
// may be resumed with different parallelism and still converge to the
// byte-identical model.
func buildFingerprint(srcFP string, langs []pattern.Language, smoothing float64, sampleCap int, dsSeed int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v1|langs=")
	for _, l := range langs {
		fmt.Fprintf(&sb, "%d,", l.ID)
	}
	fmt.Fprintf(&sb, "|smooth=%g|sample=%d|dsseed=%d|src=%s", smoothing, sampleCap, dsSeed, srcFP)
	return sb.String()
}

// BuildFingerprint resolves opts exactly like Run and CountPartial do and
// returns the fingerprint a build over a source with fingerprint srcFP
// would carry. The distributed-build coordinator uses it to compute the
// expected identity of every partition's shard without opening the
// partition itself.
func BuildFingerprint(srcFP string, opts Options) string {
	tc, ds, langs, _ := resolveTrain(opts)
	return buildFingerprint(srcFP, langs, tc.Smoothing, opts.SampleColumns, ds.Seed)
}

func (c *checkpoint) marshal() ([]byte, error) {
	le := binary.LittleEndian
	buf := envelope.AppendString(nil, c.fingerprint)
	buf = le.AppendUint64(buf, c.columns)
	buf = le.AppendUint64(buf, c.values)
	buf = appendSampleEntries(buf, c.entries)
	return appendLanguageStats(buf, c.stats, c.workers)
}

func unmarshalCheckpoint(data []byte) (*checkpoint, error) {
	d := envelope.NewDecoder(data)
	c := &checkpoint{fingerprint: d.String()}
	c.columns = d.U64()
	c.values = d.U64()
	c.entries = readSampleEntries(d)
	var err error
	if c.stats, err = readLanguageStats(d, "checkpoint"); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint: %w", err)
	}
	return c, nil
}

// appendLanguageStats appends the statistics section shared by checkpoints
// and shards: the language count, then each language's length-framed
// MarshalBinary blob. The blobs are encoded on up to workers goroutines,
// each into its own slot, and appended in language order, so the bytes do
// not depend on the worker count.
func appendLanguageStats(buf []byte, all []*stats.LanguageStats, workers int) ([]byte, error) {
	blobs := make([][]byte, len(all))
	if err := stats.ForEachLanguage(len(all), workers, func(i int) error {
		blob, err := all[i].MarshalBinary()
		if err != nil {
			return fmt.Errorf("pipeline: serializing %v statistics: %w", all[i].Language(), err)
		}
		blobs[i] = blob
		return nil
	}); err != nil {
		return nil, err
	}
	size := 8
	for _, blob := range blobs {
		size += 8 + len(blob)
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(blobs)))
	for i, blob := range blobs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(blob)))
		buf = append(buf, blob...)
		blobs[i] = nil // copied into buf; a collection may now reclaim it
	}
	return buf, nil
}

// readLanguageStats is the inverse of appendLanguageStats; what names the
// container ("checkpoint" or "shard") in errors.
func readLanguageStats(d *envelope.Decoder, what string) ([]*stats.LanguageStats, error) {
	n := d.Count(8)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", what, err)
	}
	if n > 4096 {
		return nil, fmt.Errorf("pipeline: implausible %s language count", what)
	}
	all := make([]*stats.LanguageStats, n)
	for i := range all {
		blob := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: %s statistics %d: %w", what, i, err)
		}
		ls := &stats.LanguageStats{}
		if err := ls.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("pipeline: %s statistics %d: %w", what, i, err)
		}
		all[i] = ls
	}
	return all, nil
}

// appendSampleEntries appends the distant-supervision sample: entry count,
// then per entry the selection priority and the length-framed values. Only
// Values are persisted — distsup reads nothing else from a column — which
// checkpoint round-trip tests have relied on since CK/1.
func appendSampleEntries(buf []byte, entries []sampleEntry) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = le.AppendUint64(buf, e.pri)
		buf = le.AppendUint64(buf, uint64(len(e.col.Values)))
		for _, v := range e.col.Values {
			buf = envelope.AppendString(buf, v)
		}
	}
	return buf
}

// readSampleEntries is the inverse of appendSampleEntries. It returns nil
// once d has failed; the caller reports d's error.
func readSampleEntries(d *envelope.Decoder) []sampleEntry {
	// Each entry is at least its priority and its value count.
	entries := make([]sampleEntry, d.Count(16))
	for i := range entries {
		entries[i].pri = d.U64()
		vals := make([]string, d.Count(8))
		for j := range vals {
			vals[j] = d.String()
		}
		if d.Err() != nil {
			return nil
		}
		entries[i].col = &corpus.Column{Values: vals}
	}
	return entries
}

// checkpointPath names the shard for a column boundary.
func checkpointPath(dir string, columns uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%012d.ckpt", columns))
}

// keepLastCheckpoints is how many newest shards survive pruning. Keeping
// more than one is what makes the corrupt-newest-shard fallback possible:
// a torn write (or bit rot) in the latest shard costs one checkpoint
// interval of recounting, not the whole build.
const keepLastCheckpoints = 3

// writeCheckpoint durably persists the shard — temp file, fsync, rename,
// parent-dir fsync via atomicio — and prunes all but the newest
// keepLastCheckpoints shards.
func writeCheckpoint(dir string, c *checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	payload, err := c.marshal()
	if err != nil {
		return err
	}
	final := checkpointPath(dir, c.columns)
	if err := atomicio.WriteTo(final, 0o644, func(w io.Writer) error {
		return envelope.Write(w, ckptMagic, payload)
	}); err != nil {
		return fmt.Errorf("pipeline: writing checkpoint: %w", err)
	}
	// Prune superseded shards, oldest first, keeping the newest
	// keepLastCheckpoints. Shard names embed the zero-padded column
	// boundary, so lexical order is chronological order.
	shards := listCheckpoints(dir)
	for i := 0; i < len(shards)-keepLastCheckpoints; i++ {
		os.Remove(shards[i])
	}
	return nil
}

// listCheckpoints returns shard paths under dir, oldest first.
func listCheckpoints(dir string) []string {
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		return nil
	}
	sort.Strings(matches)
	return matches
}

// loadLatestCheckpoint restores the newest *valid* shard in dir, verifying
// integrity, fingerprint and language identity. A CRC-corrupt or truncated
// shard — the signature of a torn write or bit rot — is skipped and the
// next-oldest shard is tried; the skipped paths are returned so the caller
// can surface them. Returns (nil, skipped, nil) when dir holds no
// checkpoint, and an error when every shard is corrupt (resuming from
// nothing would silently discard acknowledged progress).
//
// A shard for a different corpus or configuration stays a hard error, not a
// fallback candidate: that is operator error, and losing hours of counting
// silently would be worse than asking the operator to clear the directory.
func loadLatestCheckpoint(dir, fingerprint string, langs []pattern.Language) (*checkpoint, []string, error) {
	shards := listCheckpoints(dir)
	if len(shards) == 0 {
		return nil, nil, nil
	}
	var skipped []string
	for i := len(shards) - 1; i >= 0; i-- {
		path := shards[i]
		c, err := readCheckpoint(path)
		if err != nil {
			// Integrity failure: fall back to the previous shard.
			skipped = append(skipped, path)
			continue
		}
		if c.fingerprint != fingerprint {
			return nil, skipped, fmt.Errorf("pipeline: checkpoint %s was built over a different corpus or configuration; remove it (or point -checkpoint elsewhere) to start fresh", path)
		}
		if len(c.stats) != len(langs) {
			return nil, skipped, fmt.Errorf("pipeline: checkpoint %s covers %d languages, expected %d", path, len(c.stats), len(langs))
		}
		for j, ls := range c.stats {
			if ls.Language().ID != langs[j].ID {
				return nil, skipped, fmt.Errorf("pipeline: checkpoint %s language %d mismatch", path, j)
			}
		}
		return c, skipped, nil
	}
	return nil, skipped, fmt.Errorf("pipeline: all %d checkpoint shards in %s are corrupt or truncated; remove them to restart from scratch", len(shards), dir)
}

// readCheckpoint loads and integrity-checks a single shard file.
func readCheckpoint(path string) (*checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	defer f.Close()
	payload, err := envelope.Read(f, ckptMagic, maxCheckpointPayload)
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint %s: %w", path, err)
	}
	c, err := unmarshalCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint %s: %w", path, err)
	}
	return c, nil
}

// removeCheckpoints deletes every shard in dir; called after a successful
// build consumes them.
func removeCheckpoints(dir string) {
	for _, p := range listCheckpoints(dir) {
		os.Remove(p)
	}
}
