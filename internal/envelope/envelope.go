// Package envelope implements the integrity envelope shared by every
// on-disk artifact of the system — serialized models (format v2), corpus
// pipeline checkpoints and distributed-build shards:
//
//	magic | u64 payload length | payload | u64 CRC64-ECMA(payload)
//
// Truncated or bit-flipped files are rejected deterministically instead of
// deserializing into silently broken state. Readers verify first, then
// decode: Read returns a payload only after its checksum matches, and
// Decoder reads the payload's fields with every declared length checked
// against the bytes that remain.
package envelope

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// ErrIntegrity is wrapped by every Read failure — wrong magic, truncated
// stream, implausible length, or CRC mismatch — and by every Decoder
// failure. Callers can test with errors.Is(err, ErrIntegrity).
var ErrIntegrity = errors.New("envelope: corrupt or truncated")

// crcTable is the CRC64 polynomial of the trailer (crc64.ECMA, matching the
// model v2 format).
var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC64-ECMA checksum Write appends as the trailer.
func Checksum(payload []byte) uint64 { return crc64.Checksum(payload, crcTable) }

// Write wraps payload in the envelope and writes it to w.
func Write(w io.Writer, magic []byte, payload []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(payload)))
	if _, err := bw.Write(tmp[:]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(tmp[:], Checksum(payload))
	if _, err := bw.Write(tmp[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read verifies the magic, bounds the declared payload length by maxPayload,
// and returns the payload after checking the CRC64 trailer. Memory grows
// with the bytes the stream delivers, not with the declared length: a short
// stream that declares a huge payload fails after allocating about what it
// sent.
func Read(r io.Reader, magic []byte, maxPayload uint64) ([]byte, error) {
	hdr := make([]byte, len(magic)+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrIntegrity, err)
	}
	if !bytes.Equal(hdr[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: wrong magic", ErrIntegrity)
	}
	plen := binary.LittleEndian.Uint64(hdr[len(magic):])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrIntegrity, plen, maxPayload)
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrIntegrity, err)
	}
	var tmp [8]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum trailer: %v", ErrIntegrity, err)
	}
	if want, have := binary.LittleEndian.Uint64(tmp[:]), Checksum(payload); want != have {
		return nil, fmt.Errorf("%w: checksum mismatch: file says %016x, payload hashes to %016x",
			ErrIntegrity, want, have)
	}
	return payload, nil
}

// firstChunk is the buffer readPayload starts with before the stream has
// shown it holds more.
const firstChunk = 64 << 10

// readPayload reads exactly n bytes, doubling its buffer only once the
// previous one is full, so the final buffer holds exactly n bytes and a
// stream that ends early costs at most twice what it delivered.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, min(n, firstChunk))
	off := 0
	for {
		m, err := io.ReadFull(r, buf[off:])
		off += m
		if err != nil {
			return nil, err
		}
		if uint64(off) == n {
			return buf, nil
		}
		next := make([]byte, min(2*uint64(len(buf)), n))
		copy(next, buf)
		buf = next
	}
}

// WriteJSON wraps v's JSON encoding in the envelope and writes it to w.
func WriteJSON(w io.Writer, magic []byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return Write(w, magic, payload)
}

// ReadJSON reads an enveloped JSON payload into v. Undecodable JSON
// inside an intact envelope is wrapped in ErrIntegrity too: either way the
// file is not trustworthy.
func ReadJSON(r io.Reader, magic []byte, maxPayload uint64, v any) error {
	payload, err := Read(r, magic, maxPayload)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: undecodable payload: %v", ErrIntegrity, err)
	}
	return nil
}

// AppendString appends s with the u64 length prefix Decoder.String reads.
func AppendString(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(buf, uint64(len(s))), s...)
}

// Decoder reads little-endian fields from a payload, normally one Read has
// verified. Every declared length or count is checked against the bytes
// remaining before the caller allocates for it. The first failure sticks:
// later reads return zero values, and Err or Finish reports it once after a
// run of reads.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Remaining returns the number of bytes not yet read.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first failure, or an error if bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.Remaining() != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrIntegrity, d.Remaining())
	}
	return d.err
}

// take returns the next n bytes, or nil after recording a failure if fewer
// remain.
func (d *Decoder) take(n uint64, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: %s at offset %d needs %d bytes, %d remain", ErrIntegrity, what, d.off, n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Bytes reads a u64 length and that many bytes. The result aliases the
// payload; copy it to keep it past the payload's lifetime.
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	return d.take(n, "length-prefixed bytes")
}

// String reads a u64 length and that many bytes as a string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Count reads a u64 element count and checks that the remaining bytes can
// hold that many elements of at least minSize bytes each, so the caller
// may allocate for the count. It returns 0 after a failure.
func (d *Decoder) Count(minSize int) int {
	n := d.U64()
	if d.err == nil && n > uint64(d.Remaining()/minSize) {
		d.err = fmt.Errorf("%w: count %d of %d-byte elements at offset %d exceeds the %d bytes remaining",
			ErrIntegrity, n, minSize, d.off-8, d.Remaining())
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}
