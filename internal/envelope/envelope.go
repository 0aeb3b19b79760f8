// Package envelope implements the integrity envelope shared by every
// on-disk artifact of the system — serialized models (format v2) and
// corpus-pipeline checkpoint shards:
//
//	magic | u64 payload length | payload | u64 CRC64-ECMA(payload)
//
// Truncated or bit-flipped files are rejected deterministically instead of
// deserializing into silently broken state.
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

// ErrIntegrity is wrapped by every Read failure: wrong magic, truncated
// stream, implausible length, or CRC mismatch. Callers can test with
// errors.Is(err, ErrIntegrity).
var ErrIntegrity = errors.New("envelope: corrupt or truncated")

// crcTable is the CRC64 polynomial of the trailer (crc64.ECMA, matching the
// model v2 format).
var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC64-ECMA checksum Write appends as the trailer.
func Checksum(payload []byte) uint64 { return crc64.Checksum(payload, crcTable) }

// NewHash returns a streaming hasher computing the trailer checksum.
func NewHash() io.Writer { return crc64.New(crcTable) }

// Table exposes the CRC64 table for callers that stream-verify payloads
// themselves (e.g. bounded model decoding).
func Table() *crc64.Table { return crcTable }

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
// and returns the payload after checking the CRC64 trailer.
func Read(r io.Reader, magic []byte, maxPayload uint64) ([]byte, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrIntegrity, err)
	}
	if !bytes.Equal(got, magic) {
		return nil, fmt.Errorf("%w: wrong magic", ErrIntegrity)
	}
	var tmp [8]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return nil, fmt.Errorf("%w: reading payload length: %v", ErrIntegrity, err)
	}
	plen := binary.LittleEndian.Uint64(tmp[:])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrIntegrity, plen, maxPayload)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrIntegrity, err)
	}
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum trailer: %v", ErrIntegrity, err)
	}
	if want, have := binary.LittleEndian.Uint64(tmp[:]), Checksum(payload); want != have {
		return nil, fmt.Errorf("%w: checksum mismatch: file says %016x, payload hashes to %016x",
			ErrIntegrity, want, have)
	}
	return payload, nil
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
