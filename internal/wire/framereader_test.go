package wire

import (
	"fmt"
	"io"
)

// FrameReader reads a stream of frames from R through a FrameBuf, as the
// socket link's reader does from read(2), so the tests and fuzzers that
// drive it with every cut of a stream — whole, in halves, byte by byte, and
// arbitrary bytes against ReadFrame — cover the link's parser. The zero
// value with R set is ready to use.
type FrameReader struct {
	R   io.Reader
	buf FrameBuf
	err error // R's error, returned once the frames read before it are
}

// Next returns the next frame body. The slice aliases the reader's buffer
// and is valid only until the next call. A stream that ends between
// frames yields a bare io.EOF; one that ends inside a frame, a short-frame
// error.
func (fr *FrameReader) Next() ([]byte, error) {
	for {
		if body, ok, err := fr.buf.Next(); ok || err != nil {
			return body, err
		}
		if fr.err == io.EOF && fr.buf.w > fr.buf.r {
			return nil, fmt.Errorf("wire: short frame: %w", io.ErrUnexpectedEOF)
		}
		if fr.err != nil {
			return nil, fr.err
		}
		var n int
		n, fr.err = fr.R.Read(fr.buf.Free())
		fr.buf.Filled(n)
	}
}
