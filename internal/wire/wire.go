// Package wire is the compact binary record framing shared by the
// CMI durable logs: the delivery journal, the enactment write-ahead log,
// the federation spool and the ingest benchmark's detection sink. JSON
// stays at the public HTTP edge; on disk each record is a
// length-prefixed, checksummed binary frame:
//
//	+--------+------------------+-----------+----------------+
//	| format | payload length   | CRC32-C   | payload        |
//	| 1 byte | uvarint          | 4 B, LE   | length bytes   |
//	+--------+------------------+-----------+----------------+
//
// The format byte (0x81 for version 1) has the high bit set, so a frame
// never begins like a JSON record ('{' is 0x7B) and a journal written
// by a pre-binary CMI is recognized, and refused, on its first byte.
// The CRC covers the payload. Walking a journal frame by frame and
// deciding how it ends — cleanly, at a torn tail, at corruption —
// belongs to package journal; this package only builds and parses one
// frame at a time and supplies the field primitives record codecs use.
//
// Versioning rules: a reader accepts format bytes it knows (currently
// only 0x81). New fields are appended to a record's payload; decoders
// tolerate a shorter (older) payload by leaving the trailing fields
// zero, and a payload layout change takes a new format byte.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// Format1 is the format byte of version-1 frames. The high bit is set
// so no frame can be confused with the first byte of a JSON record.
const Format1 = 0x81

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of the payload.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// AppendFrame appends one version-1 frame carrying payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, Format1)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// ParseFrame decodes the frame at the start of b, returning its payload
// (a view into b) and the frame's total size in bytes. ok is false when
// b does not begin with a complete version-1 frame whose checksum
// holds: a truncated frame, a damaged one, or any other first byte.
func ParseFrame(b []byte) (payload []byte, size int, ok bool) {
	if len(b) == 0 || b[0] != Format1 {
		return nil, 0, false
	}
	n, ln := binary.Uvarint(b[1:])
	if ln <= 0 {
		return nil, 0, false
	}
	head := 1 + ln
	end := uint64(head) + 4 + n
	if end > uint64(len(b)) {
		return nil, 0, false
	}
	payload = b[head+4 : end]
	if Checksum(payload) != binary.LittleEndian.Uint32(b[head:]) {
		return nil, 0, false
	}
	return payload, int(end), true
}

// ---------------------------------------------------------------------
// Append-style encoder primitives. All values use variable-length
// encodings so the common small values cost one byte.

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendTime appends a timestamp: a presence byte (0 for the zero
// time) followed by the wall clock as unix nanoseconds. Sub-nanosecond
// monotonic readings are dropped, as with JSON encoding.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, t.UnixNano())
}

// AppendUint64LE appends a fixed-width little-endian uint64 — used for
// fields patched in place (the fan-out id slot), where a varint's
// width would change with the value.
func AppendUint64LE(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// A Dec decodes the primitives appended by this package. Errors are
// sticky: after a short read every subsequent call returns the zero
// value, and Err reports the failure once at the end — callers check
// one error per record instead of one per field.
type Dec struct {
	b   []byte
	bad bool
}

// NewDec returns a decoder over one record payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail() {
	d.bad = true
	d.b = nil
}

// Err returns the decoding error, if any field read ran short.
func (d *Dec) Err() error {
	if d.bad {
		return fmt.Errorf("wire: truncated record")
	}
	return nil
}

// Len returns how many bytes remain undecoded.
func (d *Dec) Len() int { return len(d.b) }

// Byte decodes one byte.
func (d *Dec) Byte() byte {
	if d.bad || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint decodes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bytes decodes a length-prefixed byte slice as a view into the
// record buffer (valid while the buffer is).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.bad || uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// String decodes a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Bool decodes one boolean byte.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Time decodes a timestamp appended by AppendTime.
func (d *Dec) Time() time.Time {
	if d.Byte() == 0 || d.bad {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
}

// Uint64LE decodes a fixed-width little-endian uint64.
func (d *Dec) Uint64LE() uint64 {
	if d.bad || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
