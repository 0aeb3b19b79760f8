package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/envelope"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// A Partial on disk or on the wire — a checkpoint, or a shard a distributed
// build (internal/distbuild) uploads — is one SH/1 file: the payload inside
// the integrity envelope of models (length header + CRC64 trailer), so a
// torn write, a torn upload or a bit flip is rejected at decode, never
// merged.
var shardMagic = []byte("AUTODETECT-SH/1\n")

// ck2Magic marks the checkpoints older builds wrote, which resume still
// reads (see decodePartial). Nothing writes CK/2 any more. CK/1 files fail
// the magic check like any other unreadable checkpoint.
var ck2Magic = []byte("AUTODETECT-CK/2\n")

// maxCheckpointPayload caps the declared payload length of a checkpoint or
// shard.
const maxCheckpointPayload = 1 << 32

// Partial is the counted state of a slice of a corpus, before finalizing:
// the per-language statistics, the slice's share of the distant-supervision
// sample, and the fingerprint of (source, training configuration) it was
// counted under. The slice is a distributed partition, or for a build's
// checkpoint the columns before a barrier. Partials from the partitions of
// one corpus merge into exactly the state a single-process build holds
// after its counting stage.
type Partial struct {
	// Fingerprint is buildFingerprint(source, config) — the coordinator
	// recomputes it per partition and refuses shards that disagree.
	Fingerprint string
	// Columns and Values count the corpus cells folded into this partial.
	Columns, Values uint64

	stats []*stats.LanguageStats
	smp   *sample
	// workers is the per-language parallelism of Merge and EncodePartial:
	// the counting build's Options.Workers, or one per CPU for a decoded
	// shard.
	workers int
}

// CountPartial streams src to exhaustion through Run's counting fan-out,
// but stops at the merge barrier: no canonicalization, no distant
// supervision, no calibration. Options is resolved exactly like Run's, so a
// worker counting partition i of a corpus and a single-process build over
// the whole corpus agree on every configuration default. Checkpoint
// options are ignored — a distributed worker's unit of durability is the
// uploaded shard, and a lost worker's partition is recounted from scratch
// under its new lease. An empty source yields a valid zero-column partial.
func CountPartial(ctx context.Context, src ColumnSource, opts Options) (*Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := startBuild(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.count(ctx); err != nil {
		return nil, err
	}
	return b.part, nil
}

// Merge folds another partition's partial into the receiver. Statistics and
// bounded samples merge in any order; unbounded samples (SampleColumns=0)
// concatenate, so callers must merge partitions in index order to
// reproduce the single-stream column sequence. Fingerprints are NOT
// compared here — partitions of one build legitimately differ — the caller
// owns shard/build identity checks.
func (p *Partial) Merge(other *Partial) error {
	if other == nil {
		return errors.New("pipeline: cannot merge nil partial")
	}
	if err := stats.MergeAll(p.stats, p.workers, other.stats); err != nil {
		return fmt.Errorf("pipeline: merging partial: %w", err)
	}
	p.smp.merge(other.smp)
	p.Columns += other.Columns
	p.Values += other.Values
	return nil
}

// Prepare runs the stages between counting and calibration over the
// (fully merged) partial: it canonicalizes the statistics in place and
// draws the distant-supervision training pairs. The returned pipeline
// shares the partial's statistics, so parameter sweeps can recalibrate
// and reselect from it without another corpus pass.
func (p *Partial) Prepare(opts Options) (*core.Pipeline, error) {
	return p.prepare(newBuild(opts))
}

// prepare is Prepare on b's stage clock.
func (p *Partial) prepare(b *build) (*core.Pipeline, error) {
	if p.Columns == 0 {
		return nil, errors.New("pipeline: no columns counted")
	}
	t0 := time.Now()
	if err := stats.CanonicalizeAll(p.stats, b.workers); err != nil {
		return nil, fmt.Errorf("pipeline: canonicalizing: %w", err)
	}
	b.addStage(StageMerge, time.Since(t0))

	b.setStage(StageDistsup)
	t0 = time.Now()
	data, err := distsup.Generate(&corpus.Corpus{Name: "pipeline-sample", Columns: p.smp.finalize()}, b.ds)
	if err != nil {
		return nil, fmt.Errorf("pipeline: generating training data: %w", err)
	}
	b.addStage(StageDistsup, time.Since(t0))
	langs := make([]pattern.Language, len(p.stats))
	for i, ls := range p.stats {
		langs[i] = ls.Language()
	}
	return &core.Pipeline{Languages: langs, Stats: p.stats, Data: data}, nil
}

// Finalize prepares the partial and trains the detector: the distributed
// coordinator's last step, identical to what Run does after its own
// counting stage.
func (p *Partial) Finalize(ctx context.Context, opts Options) (*core.Detector, *core.TrainReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := newBuild(opts)
	pipe, err := p.prepare(b)
	if err != nil {
		return nil, nil, err
	}
	return b.train(ctx, pipe)
}

// SampleSize reports how many distant-supervision columns the partial holds.
func (p *Partial) SampleSize() int { return p.smp.size() }

// EncodePartial writes the partial as an integrity-enveloped shard: magic,
// length header, payload, CRC64 trailer. The payload embeds the sample's
// cap and seed so DecodePartial reconstructs a sample that keeps merging
// correctly.
func EncodePartial(w io.Writer, p *Partial) error {
	le := binary.LittleEndian
	buf := envelope.AppendString(nil, p.Fingerprint)
	buf = le.AppendUint64(buf, p.Columns)
	buf = le.AppendUint64(buf, p.Values)
	buf = le.AppendUint64(buf, uint64(int64(p.smp.cap)))
	buf = le.AppendUint64(buf, p.smp.seed)
	buf = appendSampleEntries(buf, p.smp.entries())
	buf, err := appendLanguageStats(buf, p.stats, p.workers)
	if err != nil {
		return err
	}
	return envelope.Write(w, shardMagic, buf)
}

// DecodePartial reads and integrity-checks one shard. Torn or bit-flipped
// shards fail with envelope.ErrIntegrity wrapped in the returned error.
func DecodePartial(rd io.Reader) (*Partial, error) { return decodePartial(rd, nil) }

// decodePartial is DecodePartial that, given the resuming build's sample as
// ck2, also reads a CK/2 checkpoint. A CK/2 payload is the SH/1 payload
// without the sample's cap and seed; they come from ck2 instead, which is
// safe because the build fingerprint the caller then checks pins both.
func decodePartial(rd io.Reader, ck2 *sample) (*Partial, error) {
	br := bufio.NewReader(rd)
	magic := shardMagic
	// A short or failed peek cannot match, and envelope.Read reports it.
	if head, _ := br.Peek(len(ck2Magic)); ck2 != nil && bytes.Equal(head, ck2Magic) {
		magic = ck2Magic
	}
	payload, err := envelope.Read(br, magic, maxCheckpointPayload)
	if err != nil {
		return nil, fmt.Errorf("pipeline: shard: %w", err)
	}
	d := envelope.NewDecoder(payload)
	p := &Partial{Fingerprint: d.String()}
	p.Columns = d.U64()
	p.Values = d.U64()
	if bytes.Equal(magic, ck2Magic) {
		p.smp = newSample(ck2.cap, ck2.seed)
	} else {
		capv := d.U64()
		p.smp = newSample(int(int64(capv)), d.U64())
	}
	p.smp.restore(readSampleEntries(d))
	if p.stats, err = readLanguageStats(d); err != nil {
		return nil, fmt.Errorf("pipeline: shard: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("pipeline: shard: %w", err)
	}
	return p, nil
}

// appendLanguageStats appends a partial's statistics: the language count,
// then each language's length-framed MarshalBinary blob. The blobs are
// encoded on up to workers goroutines, each into its own slot, and appended
// in language order, so the bytes do not depend on the worker count.
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

// readLanguageStats is the inverse of appendLanguageStats.
func readLanguageStats(d *envelope.Decoder) ([]*stats.LanguageStats, error) {
	n := d.Count(8)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, errors.New("implausible language count")
	}
	all := make([]*stats.LanguageStats, n)
	for i := range all {
		blob := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("statistics %d: %w", i, err)
		}
		ls := &stats.LanguageStats{}
		if err := ls.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("statistics %d: %w", i, err)
		}
		all[i] = ls
	}
	return all, nil
}

// appendSampleEntries appends the distant-supervision sample: entry count,
// then per entry the selection priority and the length-framed values. Only
// Values are persisted — distsup reads nothing else from a column.
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

// CountParams are the resolved configuration knobs that shape the counting
// stage and the build fingerprint — exactly the values a distributed-build
// coordinator must hand its workers for their partials to merge into the
// coordinator's expected model. Languages travel by ID (an index into
// pattern.All()), so distributed builds require language sets drawn from
// pattern.All(); they are the counted representatives (50 for the full
// candidate space), which resolve to themselves on the worker. Pair counts,
// calibration targets, and memory budgets are deliberately absent because
// they only matter at finalization, which runs on the coordinator under its
// own full Options.
type CountParams struct {
	LanguageIDs   []int   `json:"language_ids"`
	Smoothing     float64 `json:"smoothing"`
	SampleColumns int     `json:"sample_columns"`
	DistSupSeed   int64   `json:"distsup_seed"`
}

// ResolveCountParams applies the same defaulting as Run and CountPartial
// and extracts the count-relevant knobs.
func ResolveCountParams(opts Options) CountParams {
	tc, ds, langs, _ := resolveTrain(opts)
	cp := CountParams{
		LanguageIDs:   make([]int, len(langs)),
		Smoothing:     tc.Smoothing,
		SampleColumns: opts.SampleColumns,
		DistSupSeed:   ds.Seed,
	}
	for i, l := range langs {
		cp.LanguageIDs[i] = l.ID
	}
	return cp
}

// Options reconstructs counting Options from the wire-level knobs. The
// guarantee — verified by TestCountParamsRoundTrip — is that for any opts,
// BuildFingerprint(fp, ResolveCountParams(opts).Options(w)) equals
// BuildFingerprint(fp, opts): a worker counting under the reconstruction
// produces a partial the coordinator accepts and merges byte-identically.
func (cp CountParams) Options(workers int) Options {
	langs := make([]pattern.Language, len(cp.LanguageIDs))
	for i, id := range cp.LanguageIDs {
		langs[i] = pattern.ByID(id)
	}
	ds := distsup.DefaultConfig()
	ds.Seed = cp.DistSupSeed
	return Options{
		Workers: workers,
		Train: core.TrainConfig{
			Languages: langs,
			Smoothing: cp.Smoothing,
			DistSup:   ds,
		},
		SampleColumns: cp.SampleColumns,
	}
}
