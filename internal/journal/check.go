package journal

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// State is how a journal's bytes end — the one classification every
// log's open and the offline verifier share.
type State uint8

const (
	// Clean means every record decoded, up to end of file.
	Clean State = iota
	// Torn means the journal ends in a partial or damaged frame with
	// nothing decodable after it: the artifact of a crash mid-append.
	// Open truncates it away; fsck reports it, but not as damage.
	Torn
	// Corrupt means damage inside committed history: a bad frame with
	// checksum-valid frames after it, or a checksum-valid frame that
	// fails to decode (it was fully committed, so it was never torn).
	Corrupt
	// Legacy means a record in a format this build refuses: a JSON
	// line written by a pre-binary CMI, or a frame the log's decoder
	// rejects with ErrLegacy (a v1 enactment WAL record).
	Legacy
)

// String names the state, as fsck and test failures print it.
func (s State) String() string {
	switch s {
	case Clean:
		return "clean"
	case Torn:
		return "torn"
	case Corrupt:
		return "corrupt"
	case Legacy:
		return "legacy"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ErrLegacy marks a journal in a format this build no longer reads.
// Decoders wrap it to reject a pre-current record; Open refuses such a
// journal with an error wrapping it, and never rewrites the file.
var ErrLegacy = errors.New("written by a pre-binary CMI")

// ErrCorrupt marks a journal damaged inside its committed history.
var ErrCorrupt = errors.New("corrupt mid-journal")

// A Report says how a journal ends and how much of it was accepted.
type Report struct {
	// State classifies the end of the journal.
	State State
	// Records counts the records accepted before the stop point.
	Records int
	// Offset is where the scan stopped: the start of the first record
	// not accepted, or the file length when Clean. Truncating there
	// keeps exactly the accepted prefix.
	Offset int64
	// Cause is the decoder's error when it rejected a checksum-valid
	// frame (State Corrupt or Legacy); nil otherwise.
	Cause error
}

// Damaged reports whether the journal needs an operator: a torn tail
// is the normal artifact of a crash, anything else is not.
func (r Report) Damaged() bool { return r.State == Corrupt || r.State == Legacy }

// Err is the error an open reports for the journal at path: nil when
// Clean or Torn, otherwise an error wrapping ErrLegacy or ErrCorrupt
// that names the offset and what the operator should do.
func (r Report) Err(path string) error {
	cause := ""
	if r.Cause != nil {
		cause = ": " + r.Cause.Error()
	}
	switch r.State {
	case Legacy:
		return fmt.Errorf("journal %s was %w (record at offset %d%s); drain it with the release that wrote it, or move it aside with cmictl fsck -quarantine",
			path, ErrLegacy, r.Offset, cause)
	case Corrupt:
		return fmt.Errorf("journal %s is %w at offset %d%s; run cmictl fsck", path, ErrCorrupt, r.Offset, cause)
	}
	return nil
}

// Reject stops the report at a checksum-valid record that failed to
// decode with err, after records accepted ones: the journal is Legacy
// when err wraps ErrLegacy and Corrupt otherwise. Check applies it to
// its visitor's errors; a log that decodes records after the scan (the
// enactment WAL decodes in parallel) applies it to the first failure,
// so both paths follow the same rule.
func (r *Report) Reject(records int, off int64, err error) {
	r.State = Corrupt
	if errors.Is(err, ErrLegacy) {
		r.State = Legacy
	}
	r.Records, r.Offset, r.Cause = records, off, err
}

// Check walks data frame by frame, calling visit (when non-nil) with
// each record's offset and payload in file order, and reports how the
// journal ends. A visit error stops the walk (see Reject). Check never
// modifies data; Open and the offline verifier both classify through
// it, so a boot and `cmictl fsck` always agree.
func Check(data []byte, visit func(off int64, payload []byte) error) Report {
	var r Report
	off := 0
	for {
		for off < len(data) && data[off] == '\n' {
			off++ // the separator written after every frame
		}
		if off == len(data) {
			r.Offset = int64(off)
			return r
		}
		if data[off] == '{' {
			// A JSON-lines record: never a torn tail, which loads would
			// silently drop.
			r.State, r.Offset = Legacy, int64(off)
			return r
		}
		payload, size, ok := wire.ParseFrame(data[off:])
		if !ok {
			r.State, r.Offset = Torn, int64(off)
			if frameAfter(data, off+1) {
				r.State = Corrupt
			}
			return r
		}
		if visit != nil {
			if err := visit(int64(off), payload); err != nil {
				r.Reject(r.Records, int64(off), err)
				return r
			}
		}
		r.Records++
		off += size
	}
}

// frameAfter reports whether a checksum-valid frame starts anywhere in
// data[from:] — what separates mid-journal corruption (intact history
// after the bad bytes) from a torn tail.
func frameAfter(data []byte, from int) bool {
	for i := from; i < len(data); i++ {
		if data[i] == wire.Format1 {
			if _, _, ok := wire.ParseFrame(data[i:]); ok {
				return true
			}
		}
	}
	return false
}

// AppendRecord appends payload to dst as one journal record: a frame
// and its separator.
func AppendRecord(dst, payload []byte) []byte {
	return append(wire.AppendFrame(dst, payload), '\n')
}

// payloadSpans locates the payload of every accepted record of a
// journal image as (offset, length) pairs — the frame locator behind
// fs.CorruptFrame.
func payloadSpans(data []byte) [][2]int {
	var spans [][2]int
	Check(data, func(off int64, payload []byte) error {
		head := 1 + (bits.Len64(uint64(len(payload))|1)+6)/7 + 4 // format, uvarint length, CRC
		spans = append(spans, [2]int{int(off) + head, len(payload)})
		return nil
	})
	return spans
}

func init() { fs.SetFrameLocator(payloadSpans) }
