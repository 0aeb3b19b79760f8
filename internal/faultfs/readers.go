package faultfs

import (
	"io"
	"time"
)

// SlowReader delivers the underlying stream at most Chunk bytes per Read,
// sleeping Delay before each chunk — a cooperative slow-loris client.
type SlowReader struct {
	R     io.Reader
	Delay time.Duration
	Chunk int // bytes per read; 1 if unset
}

func (s *SlowReader) Read(p []byte) (int, error) {
	if s.Delay > 0 {
		time.Sleep(s.Delay)
	}
	chunk := s.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	if len(p) > chunk {
		p = p[:chunk]
	}
	return s.R.Read(p)
}

// FlakyReader returns Err (ErrInjected if nil) once After bytes have been
// delivered — a connection dying mid-body, a file read failing mid-stream,
// or a response torn in flight. A stream shorter than After ends with its
// own io.EOF before the fault fires.
type FlakyReader struct {
	R     io.Reader
	After int64
	Err   error

	read int64
}

func (f *FlakyReader) Read(p []byte) (int, error) {
	if f.read >= f.After {
		if f.Err != nil {
			return 0, f.Err
		}
		return 0, ErrInjected
	}
	if rem := f.After - f.read; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := f.R.Read(p)
	f.read += int64(n)
	return n, err
}

// readCloser pairs a wrapping reader with the Close of the stream it
// wraps, so a faulted file or response body still releases its handle.
type readCloser struct {
	io.Reader
	io.Closer
}

// Truncated yields only the first n bytes of r and then a clean EOF — a
// file cut short by a partial write or copy.
func Truncated(r io.Reader, n int64) io.Reader {
	return io.LimitReader(r, n)
}

// FlipReader XORs Mask into the byte at Offset — a single corrupted byte
// in an otherwise intact stream.
type FlipReader struct {
	R      io.Reader
	Offset int64
	Mask   byte

	pos int64
}

func (f *FlipReader) Read(p []byte) (int, error) {
	n, err := f.R.Read(p)
	if idx := f.Offset - f.pos; idx >= 0 && idx < int64(n) {
		p[idx] ^= f.Mask
	}
	f.pos += int64(n)
	return n, err
}
