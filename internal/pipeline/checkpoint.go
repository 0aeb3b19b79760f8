package pipeline

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/pattern"
)

// A checkpoint is the build's Partial at a counting barrier — the merged
// statistics over columns [0, Columns), the sample at the same boundary,
// and the build fingerprint — written by EncodePartial as one SH/1 file.
// The envelope's CRC64 trailer makes resume reject a truncated or
// bit-flipped checkpoint instead of silently corrupting the build.

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
func writeCheckpoint(dir string, p *Partial) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if err := atomicio.WriteTo(checkpointPath(dir, p.Columns), 0o644, func(w io.Writer) error {
		return EncodePartial(w, p)
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

// resume adopts the newest *valid* checkpoint in b.ckptDir as the build's
// partial, verifying integrity, fingerprint and language identity. A
// checkpoint that fails its integrity check or does not decode — the
// signature of a torn write or bit rot — is skipped and counted, and the
// next-oldest is tried. An empty directory leaves the build fresh; a
// directory whose every checkpoint is corrupt is an error, since resuming
// from nothing would silently discard acknowledged progress.
//
// A checkpoint that cannot be opened, or that belongs to a different corpus
// or configuration, is a hard error rather than a fallback candidate: the
// file may be intact, and losing hours of counting silently would be worse
// than asking the operator to fix the directory.
func (b *build) resume() error {
	shards := listCheckpoints(b.ckptDir)
	for i := len(shards) - 1; i >= 0; i-- {
		path := shards[i]
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("pipeline: checkpoint: %w", err)
		}
		p, err := decodePartial(f, b.part.smp)
		f.Close()
		if err != nil {
			b.corruptSkipped++
			continue
		}
		if p.Fingerprint != b.part.Fingerprint {
			return fmt.Errorf("pipeline: checkpoint %s was built over a different corpus or configuration; remove it (or point -checkpoint elsewhere) to start fresh", path)
		}
		if len(p.stats) != len(b.langs) {
			return fmt.Errorf("pipeline: checkpoint %s covers %d languages, expected %d", path, len(p.stats), len(b.langs))
		}
		for j, ls := range p.stats {
			if ls.Language().ID != b.langs[j].ID {
				return fmt.Errorf("pipeline: checkpoint %s language %d mismatch", path, j)
			}
		}
		p.workers = b.workers
		b.part, b.resumed = p, p.Columns
		b.columns.Store(p.Columns)
		b.values.Store(p.Values)
		return nil
	}
	if len(shards) > 0 {
		return fmt.Errorf("pipeline: all %d checkpoint shards in %s are corrupt or truncated; remove them to restart from scratch", len(shards), b.ckptDir)
	}
	return nil
}

// removeCheckpoints deletes every shard in dir; called after a successful
// build consumes them.
func removeCheckpoints(dir string) {
	for _, p := range listCheckpoints(dir) {
		os.Remove(p)
	}
}
