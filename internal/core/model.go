package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/envelope"
	"repro/internal/stats"
)

// Model file magics. Version 2 (current) wraps the payload in a length
// header and a CRC64 trailer so that truncated or bit-flipped files are
// rejected deterministically instead of deserializing into a silently
// broken detector. Version 1 files (no integrity envelope) remain
// readable.
var (
	magicV1 = []byte("AUTODETECT-GO/1\n")
	magicV2 = []byte("AUTODETECT-GO/2\n")
)

// ErrCorruptModel is wrapped by every Load failure: wrong magic, truncated
// stream, implausible counts, CRC mismatch, or undecodable statistics.
// Callers can test with errors.Is(err, ErrCorruptModel).
var ErrCorruptModel = errors.New("corrupt or invalid model")

// Decode-time caps. The Decoder already refuses any count or length the
// payload cannot back; these bound what a well-formed file may hold.
const (
	maxModelLanguages  = 1024    // languages per model
	maxPayloadBytes    = 1 << 32 // total payload bytes
	maxAggregationWord = 4       // largest aggregation word a model may carry
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrCorruptModel, fmt.Sprintf(format, args...))
}

// Save serializes the detector in the v2 format:
//
//	magic "AUTODETECT-GO/2\n" | u64 payload length | payload | u64 CRC64(payload)
//
// The payload holds the aggregation word (0: max precision) and, per
// language, the threshold, the empirical precision curve, and the corpus
// statistics.
// Sketch-compressed detectors cannot be saved; save before compressing.
func (d *Detector) Save(w io.Writer) error {
	payload, err := d.encodePayload()
	if err != nil {
		return err
	}
	return envelope.Write(w, magicV2, payload)
}

// encodePayload returns the version-independent model body.
func (d *Detector) encodePayload() ([]byte, error) {
	blobs := make([][]byte, len(d.cals))
	size := 16
	for i, c := range d.cals {
		blob, err := c.Stats.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: serializing statistics: %w", err)
		}
		blobs[i] = blob
		size += 4*8 + 2*8*len(c.scores) + len(blob)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = le.AppendUint64(buf, 0) // aggregation word
	buf = le.AppendUint64(buf, uint64(len(d.cals)))
	for i, c := range d.cals {
		buf = le.AppendUint64(buf, math.Float64bits(c.Theta))
		buf = le.AppendUint64(buf, math.Float64bits(c.TargetPrecision))
		buf = le.AppendUint64(buf, uint64(len(c.scores)))
		for _, s := range c.scores {
			buf = le.AppendUint64(buf, math.Float64bits(s))
		}
		for _, p := range c.prefixNeg {
			buf = le.AppendUint64(buf, uint64(p))
		}
		buf = le.AppendUint64(buf, uint64(len(blobs[i])))
		buf = append(buf, blobs[i]...)
		blobs[i] = nil // copied into buf; a collection may now reclaim it
	}
	return buf, nil
}

// Load deserializes a detector produced by Save. It accepts the current v2
// format, whose length header and CRC64 trailer are verified before any
// field is decoded, and legacy v1 files (no integrity envelope, read up to
// the same payload cap). Any failure — wrong magic, truncation, implausible
// counts, checksum mismatch — returns an error wrapping ErrCorruptModel and
// never panics.
func Load(r io.Reader) (*Detector, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(magicV2))
	if err != nil {
		return nil, corruptf("reading model magic: %v", err)
	}
	var payload []byte
	switch {
	case bytes.Equal(magic, magicV2):
		payload, err = envelope.Read(br, magicV2, maxPayloadBytes)
	case bytes.Equal(magic, magicV1):
		br.Discard(len(magicV1)) // Peek buffered the magic, so this cannot fail
		payload, err = io.ReadAll(io.LimitReader(br, maxPayloadBytes+1))
		if err == nil && len(payload) > maxPayloadBytes {
			err = fmt.Errorf("v1 payload exceeds %d bytes", uint64(maxPayloadBytes))
		}
	default:
		return nil, corruptf("not an Auto-Detect model")
	}
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return decodePayload(envelope.NewDecoder(payload))
}

// decodePayload decodes the version-independent model body, validating
// every structural invariant of the calibration data before trusting it.
func decodePayload(d *envelope.Decoder) (*Detector, error) {
	aggv, nl := d.U64(), d.U64()
	if err := d.Err(); err != nil {
		return nil, corruptf("truncated model: %v", err)
	}
	// Words 1–4 named the Figure 8(b) ablation rules that older builds
	// could persist; only max precision is served, so they load as 0.
	if aggv > maxAggregationWord {
		return nil, corruptf("unknown aggregation strategy %d", aggv)
	}
	if nl == 0 || nl > maxModelLanguages {
		return nil, corruptf("implausible language count %d", nl)
	}
	cals := make([]*Calibration, 0, nl)
	for i := 0; i < int(nl); i++ {
		c := &Calibration{
			Theta:           math.Float64frombits(d.U64()),
			TargetPrecision: math.Float64frombits(d.U64()),
		}
		// Each curve point is a score and a prefix count.
		ns := d.Count(16)
		if err := d.Err(); err != nil {
			return nil, corruptf("language %d: %v", i, err)
		}
		if math.IsNaN(c.Theta) {
			return nil, corruptf("language %d: threshold is NaN", i)
		}
		if math.IsNaN(c.TargetPrecision) || c.TargetPrecision < 0 || c.TargetPrecision > 1 {
			return nil, corruptf("language %d: target precision out of range", i)
		}
		c.scores = make([]float64, ns)
		for j := range c.scores {
			s := math.Float64frombits(d.U64())
			if math.IsNaN(s) {
				return nil, corruptf("language %d: curve score %d is NaN", i, j)
			}
			if j > 0 && s < c.scores[j-1] {
				return nil, corruptf("language %d: curve scores not sorted at %d", i, j)
			}
			c.scores[j] = s
		}
		c.prefixNeg = make([]int, ns)
		prev := uint64(0)
		for j := range c.prefixNeg {
			v := d.U64()
			// prefixNeg[j] counts incompatible examples among scores[0..j]:
			// it must fit the prefix, never decrease, and grow by at most
			// one per step. That also guarantees the uint64→int cast is
			// safe on every platform.
			if v > uint64(j+1) || v < prev || v > prev+1 {
				return nil, corruptf("language %d: invalid precision-curve prefix at %d", i, j)
			}
			prev = v
			c.prefixNeg[j] = int(v)
		}
		blob := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, corruptf("language %d: truncated statistics: %v", i, err)
		}
		ls := &stats.LanguageStats{}
		if err := ls.UnmarshalBinary(blob); err != nil {
			return nil, corruptf("language %d statistics: %v", i, err)
		}
		c.Stats = ls
		c.coverage = NewBitset(0)
		cals = append(cals, c)
	}
	if err := d.Finish(); err != nil {
		return nil, corruptf("%v", err)
	}
	det, err := NewDetector(cals)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return det, nil
}
