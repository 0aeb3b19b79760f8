package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/envelope"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Shard files exchanged by the distributed build (internal/distbuild) carry
// a Partial inside the same integrity envelope as checkpoints, under their
// own magic: a torn upload or a bit flip in transit is rejected at decode,
// never merged.
var shardMagic = []byte("AUTODETECT-SH/1\n")

// Partial is the result of counting one corpus partition without
// finalizing: the per-language statistics, the partition's share of the
// distant-supervision sample, and the fingerprint of (partition source,
// training configuration) it was counted under. Partials from the
// partitions of one corpus merge into exactly the state a single-process
// build holds after its counting stage.
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

// CountPartial streams src to exhaustion through the same lock-free
// counting fan-out as Run, but stops at the merge barrier: no
// canonicalization, no distant supervision, no calibration. Options is
// resolved exactly like Run's, so a worker counting partition i of a corpus
// and a single-process build over the whole corpus agree on every
// configuration default. Checkpoint options are ignored — a distributed
// worker's unit of durability is the uploaded shard, and a lost worker's
// partition is recounted from scratch under its new lease.
func CountPartial(ctx context.Context, src ColumnSource, opts Options) (*Partial, error) {
	if src == nil {
		return nil, errors.New("pipeline: nil column source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tc, ds, langs, workers := resolveTrain(opts)
	if bc, ok := src.(interface{ BindContext(context.Context) }); ok {
		bc.BindContext(ctx)
	}
	if am, ok := src.(interface{ AttachMetrics(*sourceMetrics) }); ok {
		am.AttachMetrics(newSourceMetrics(opts.Metrics))
	}
	if cl, ok := src.(io.Closer); ok {
		defer cl.Close()
	}

	p := &Partial{
		Fingerprint: buildFingerprint(src.Fingerprint(), langs, tc.Smoothing, opts.SampleColumns, ds.Seed),
		smp:         newSample(opts.SampleColumns, uint64(ds.Seed)),
		workers:     workers,
	}
	p.stats = make([]*stats.LanguageStats, len(langs))
	for i, l := range langs {
		p.stats[i] = stats.NewLanguageStats(l, tc.Smoothing)
	}

	batches := make(chan []*corpus.Column, workers*2)
	partials := make([]*stats.Builder, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		partials[w] = stats.NewBuilder(langs, tc.Smoothing)
		wg.Add(1)
		go func(pb *stats.Builder) {
			defer wg.Done()
			for batch := range batches {
				for _, col := range batch {
					pb.AddColumn(col.Values)
				}
			}
		}(partials[w])
	}

	var batch []*corpus.Column
	var srcErr error
	for {
		if err := ctx.Err(); err != nil {
			srcErr = err
			break
		}
		col, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			srcErr = err
			break
		}
		p.smp.add(col)
		batch = append(batch, col)
		if len(batch) == columnBatchSize {
			batches <- batch
			batch = nil
		}
		p.Columns++
		p.Values += uint64(len(col.Values))
	}
	if len(batch) > 0 {
		batches <- batch
	}
	close(batches)
	wg.Wait()
	if srcErr != nil {
		if errors.Is(srcErr, ctx.Err()) && ctx.Err() != nil {
			return nil, fmt.Errorf("pipeline: partition count interrupted after %d columns: %w", p.Columns, ctx.Err())
		}
		return nil, fmt.Errorf("pipeline: reading source: %w", srcErr)
	}

	if err := mergeBuilders(p.stats, partials, workers); err != nil {
		return nil, err
	}
	return p, nil
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

// Finalize runs the post-counting stages over the (fully merged) partial
// and returns the trained detector: the distributed coordinator's last
// step, identical to what Run does after its own counting stage.
func (p *Partial) Finalize(ctx context.Context, opts Options) (*core.Detector, *core.TrainReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Columns == 0 {
		return nil, nil, errors.New("pipeline: no columns counted")
	}
	tc, ds, _, workers := resolveTrain(opts)
	return finalizeStats(ctx, p.stats, p.smp.finalize(), tc, ds, workers, nil, nil)
}

// SampleSize reports how many distant-supervision columns the partial holds.
func (p *Partial) SampleSize() int { return p.smp.size() }

// EncodePartial writes the partial as an integrity-enveloped shard: magic,
// length header, payload, CRC64 trailer. The payload embeds the sample's
// cap and seed so DecodePartial reconstructs a sample that keeps merging
// correctly.
func EncodePartial(w io.Writer, p *Partial) error {
	var buf bytes.Buffer
	var tmp [8]byte
	wu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf.Write(tmp[:])
	}
	wu64(uint64(len(p.Fingerprint)))
	buf.WriteString(p.Fingerprint)
	wu64(p.Columns)
	wu64(p.Values)
	wu64(uint64(int64(p.smp.cap)))
	wu64(p.smp.seed)
	writeSampleEntries(&buf, p.smp.entries())
	if err := writeLanguageStats(&buf, p.stats, p.workers); err != nil {
		return err
	}
	return envelope.Write(w, shardMagic, buf.Bytes())
}

// DecodePartial reads and integrity-checks one shard. Torn or bit-flipped
// shards fail with envelope.ErrIntegrity wrapped in the returned error.
func DecodePartial(rd io.Reader) (*Partial, error) {
	payload, err := envelope.Read(rd, shardMagic, maxCheckpointPayload)
	if err != nil {
		return nil, fmt.Errorf("pipeline: shard: %w", err)
	}
	r := bytes.NewReader(payload)
	var tmp [8]byte
	ru64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return 0, errors.New("pipeline: truncated shard")
		}
		return binary.LittleEndian.Uint64(tmp[:]), nil
	}
	p := &Partial{}
	fl, err := ru64()
	if err != nil {
		return nil, err
	}
	if fl > uint64(r.Len()) {
		return nil, errors.New("pipeline: corrupt shard fingerprint length")
	}
	fp := make([]byte, fl)
	if _, err := io.ReadFull(r, fp); err != nil {
		return nil, errors.New("pipeline: truncated shard")
	}
	p.Fingerprint = string(fp)
	if p.Columns, err = ru64(); err != nil {
		return nil, err
	}
	if p.Values, err = ru64(); err != nil {
		return nil, err
	}
	capv, err := ru64()
	if err != nil {
		return nil, err
	}
	seed, err := ru64()
	if err != nil {
		return nil, err
	}
	p.smp = newSample(int(int64(capv)), seed)
	entries, err := readSampleEntries(r, payload)
	if err != nil {
		return nil, err
	}
	p.smp.restore(entries)
	if p.stats, err = readLanguageStats(r, "shard"); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, errors.New("pipeline: trailing bytes in shard")
	}
	return p, nil
}

// CountParams are the resolved configuration knobs that shape the counting
// stage and the build fingerprint — exactly the values a distributed-build
// coordinator must hand its workers for their partials to merge into the
// coordinator's expected model. Languages travel by ID (an index into
// pattern.All()), so distributed builds require language sets drawn from
// pattern.All(); pair counts, calibration targets, and memory budgets are
// deliberately absent because they only matter at finalization, which runs
// on the coordinator under its own full Options.
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
