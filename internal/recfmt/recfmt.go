// Package recfmt defines the binary convention every on-disk record the
// repo persists shares: a 4-byte magic, a uvarint format version, and
// varint-framed CRC-protected chunks, written with the same append-in-place
// style as internal/proto's wire encoders. Both the fault package's compiled
// schedules and the flight recorder's run captures are recfmt files, so one
// header check rejects stale or corrupt artifacts of either kind loudly
// instead of replaying garbage.
//
// Layout:
//
//	magic[4] | version uvarint | chunk*
//	chunk  = type uvarint | len uvarint | payload[len] | crc32c(payload) fixed32
//
// All integers are unsigned or zigzag varints; floats are IEEE-754 bits in
// little-endian fixed64. The per-chunk CRC is Castagnoli, covering the
// payload bytes only (type and length corruption surfaces as a framing
// error first).
package recfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// castagnoli is the CRC-32C table every chunk checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of the payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// AppendHeader appends the file header: the 4-byte magic and the format
// version. It panics if the magic is not exactly 4 bytes — magics are
// compile-time constants.
func AppendHeader(dst []byte, magic string, version uint64) []byte {
	if len(magic) != 4 {
		panic(fmt.Sprintf("recfmt: magic %q is not 4 bytes", magic))
	}
	dst = append(dst, magic...)
	return binary.AppendUvarint(dst, version)
}

// CheckHeader validates the magic and version of data and returns the
// version and the remaining bytes. Versions above maxVersion fail: a newer
// writer's file must not be half-read by an older reader.
func CheckHeader(data []byte, magic string, maxVersion uint64) (version uint64, rest []byte, err error) {
	if len(magic) != 4 {
		panic(fmt.Sprintf("recfmt: magic %q is not 4 bytes", magic))
	}
	if len(data) < 4 || string(data[:4]) != magic {
		return 0, nil, fmt.Errorf("recfmt: bad magic (want %q)", magic)
	}
	v, n := binary.Uvarint(data[4:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("recfmt: truncated version")
	}
	if v == 0 || v > maxVersion {
		return 0, nil, fmt.Errorf("recfmt: unsupported %s version %d (max %d)", magic, v, maxVersion)
	}
	return v, data[4+n:], nil
}

// AppendChunk appends one framed chunk: type, length, payload, CRC-32C.
func AppendChunk(dst []byte, typ uint64, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, Checksum(payload))
}

// NextChunk decodes the chunk at the head of data, verifying its CRC, and
// returns the chunk type, its payload (aliasing data), and the remaining
// bytes. An empty data slice returns typ 0 with done = true.
func NextChunk(data []byte) (typ uint64, payload, rest []byte, done bool, err error) {
	if len(data) == 0 {
		return 0, nil, nil, true, nil
	}
	typ, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, nil, false, fmt.Errorf("recfmt: truncated chunk type")
	}
	data = data[n:]
	ln, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, nil, false, fmt.Errorf("recfmt: truncated chunk length")
	}
	data = data[n:]
	if uint64(len(data)) < ln+4 {
		return 0, nil, nil, false, fmt.Errorf("recfmt: chunk %d truncated (%d payload bytes missing)", typ, ln+4-uint64(len(data)))
	}
	payload = data[:ln]
	sum := binary.LittleEndian.Uint32(data[ln : ln+4])
	if got := Checksum(payload); got != sum {
		return 0, nil, nil, false, fmt.Errorf("recfmt: chunk %d checksum mismatch (stored %08x, computed %08x)", typ, sum, got)
	}
	return typ, payload, data[ln+4:], false, nil
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendFloat64 appends the IEEE-754 bits as fixed64 little-endian — an
// exact, canonical encoding (bit-identity comparisons depend on it).
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Reader decodes the primitives AppendX writes, accumulating the first
// error so call sites chain reads without per-call checks.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("recfmt: truncated %s at offset %d", what, r.off)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Count reads the uvarint element count that prefixes a list. Every element
// takes at least one byte, so a count above the unread bytes is corrupt: it
// fails the reader and returns 0, and a decoder may size a slice by what
// Count returns.
func (r *Reader) Count() uint64 {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Len()) {
		r.err = fmt.Errorf("recfmt: count %d exceeds the %d bytes left at offset %d", n, r.Len(), r.off)
		return 0
	}
	return n
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Float64 reads a fixed64 IEEE-754 value.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.fail("float64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bytes reads a length-prefixed byte slice (aliasing the input).
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	ln := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Len()) < ln {
		r.fail("bytes")
		return nil
	}
	out := r.data[r.off : r.off+int(ln)]
	r.off += int(ln)
	return out
}

// Expect fails the reader unless every input byte was consumed — decoders
// call it last so trailing garbage is an error, not silence.
func (r *Reader) Expect() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return fmt.Errorf("recfmt: %d trailing bytes", r.Len())
	}
	return nil
}
