package enact

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// Binary WAL record codec: one journal record payload per operation.
//
// Payload layout: kind code, seq uvarint (first so TruncateThrough can
// peek it cheaply), three reserved varints (once the v1 id counters;
// written as zero, skipped on decode), the string fields, the inputs
// map (sorted for deterministic bytes), the context value, the
// rarely-present structured fields (activity var, dependency, schema
// table) as embedded JSON, the Enable flag, the guard outcomes, and the
// id section: family root and the ids the operation drew. A record
// without the id section was written by a v1 WAL and is refused
// (journal.ErrLegacy). New fields append at the end.

// walKindNames maps kind code (index+1) to kind string; walKindCode is
// the inverse. Codes are part of the on-disk format — append only.
var walKindNames = [...]string{
	walStartProcess,
	walInstantiate,
	walAssign,
	walStart,
	walComplete,
	walTerminate,
	walSuspend,
	walResume,
	walTransition,
	walTerminateProcess,
	walAddActivity,
	walAddDependency,
	walSetField,
}

func walKindCode(kind string) (byte, bool) {
	for i, name := range walKindNames {
		if name == kind {
			return byte(i + 1), true
		}
	}
	return 0, false
}

// WireValue tag codes, mirroring core.WireValue's one-letter tags.
const (
	wvNil   = 0
	wvStr   = 1
	wvBool  = 2
	wvInt   = 3
	wvTime  = 4
	wvRole  = 5
	wvJSON  = 6
	wvOther = 7 // unknown tag: whole WireValue as JSON
)

func appendWireValue(dst []byte, v *core.WireValue) []byte {
	switch v.T {
	case "nil":
		return append(dst, wvNil)
	case "s":
		dst = append(dst, wvStr)
		return wire.AppendString(dst, v.S)
	case "b":
		dst = append(dst, wvBool)
		return wire.AppendBool(dst, v.B)
	case "i":
		dst = append(dst, wvInt)
		return wire.AppendVarint(dst, v.I)
	case "t":
		dst = append(dst, wvTime)
		return wire.AppendString(dst, v.S)
	case "r":
		dst = append(dst, wvRole)
		dst = wire.AppendUvarint(dst, uint64(len(v.R)))
		for _, s := range v.R {
			dst = wire.AppendString(dst, s)
		}
		return dst
	case "j":
		dst = append(dst, wvJSON)
		return wire.AppendBytes(dst, v.J)
	default:
		b, _ := json.Marshal(v)
		dst = append(dst, wvOther)
		return wire.AppendBytes(dst, b)
	}
}

func decodeWireValue(d *wire.Dec) *core.WireValue {
	v := &core.WireValue{}
	switch d.Byte() {
	case wvNil:
		v.T = "nil"
	case wvStr:
		v.T, v.S = "s", d.String()
	case wvBool:
		v.T, v.B = "b", d.Bool()
	case wvInt:
		v.T, v.I = "i", d.Varint()
	case wvTime:
		v.T, v.S = "t", d.String()
	case wvRole:
		v.T = "r"
		n := d.Uvarint()
		v.R = make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			v.R = append(v.R, d.String())
		}
	case wvJSON:
		v.T = "j"
		v.J = append(json.RawMessage(nil), d.Bytes()...)
	case wvOther:
		_ = json.Unmarshal(d.Bytes(), v)
	}
	return v
}

// appendJSONOpt appends a presence byte and, when present, the JSON
// encoding of v — for the rarely-present structured record fields where
// a dedicated binary layout is not worth the surface.
func appendJSONOpt(dst []byte, present bool, v any) ([]byte, error) {
	if !present {
		return append(dst, 0), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, 1)
	return wire.AppendBytes(dst, b), nil
}

// appendWALRecord encodes rec (seq already assigned) onto dst.
func appendWALRecord(dst []byte, rec *walRecord) ([]byte, error) {
	code, ok := walKindCode(rec.Kind)
	if !ok {
		return dst, fmt.Errorf("enact: unknown wal record kind %q", rec.Kind)
	}
	dst = append(dst, code)
	dst = wire.AppendUvarint(dst, uint64(rec.Seq))
	dst = append(dst, 0, 0, 0) // reserved
	dst = wire.AppendString(dst, rec.User)
	dst = wire.AppendString(dst, rec.Proc)
	dst = wire.AppendString(dst, rec.Act)
	dst = wire.AppendString(dst, rec.Var)
	dst = wire.AppendString(dst, rec.Schema)
	dst = wire.AppendString(dst, rec.To)
	dst = wire.AppendString(dst, rec.Ctx)
	dst = wire.AppendString(dst, rec.Field)
	dst = wire.AppendUvarint(dst, uint64(len(rec.Inputs)))
	if len(rec.Inputs) > 0 {
		keys := make([]string, 0, len(rec.Inputs))
		for k := range rec.Inputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = wire.AppendString(dst, k)
			dst = wire.AppendString(dst, rec.Inputs[k])
		}
	}
	if rec.Value == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendWireValue(dst, rec.Value)
	}
	var err error
	if dst, err = appendJSONOpt(dst, rec.AV != nil, rec.AV); err != nil {
		return dst, err
	}
	dst = wire.AppendBool(dst, rec.Enable)
	if dst, err = appendJSONOpt(dst, rec.Dep != nil, rec.Dep); err != nil {
		return dst, err
	}
	if dst, err = appendJSONOpt(dst, rec.Defs != nil, rec.Defs); err != nil {
		return dst, err
	}
	dst = wire.AppendUvarint(dst, uint64(len(rec.G)))
	for _, g := range rec.G {
		dst = wire.AppendBool(dst, g)
	}
	// The id section: family root and the ids the operation drew.
	dst = wire.AppendString(dst, rec.Fam)
	dst = wire.AppendVarint(dst, int64(rec.PID))
	dst = wire.AppendUvarint(dst, uint64(len(rec.AIDs)))
	for _, n := range rec.AIDs {
		dst = wire.AppendVarint(dst, int64(n))
	}
	dst = wire.AppendUvarint(dst, uint64(len(rec.CIDs)))
	for _, n := range rec.CIDs {
		dst = wire.AppendVarint(dst, int64(n))
	}
	return dst, nil
}

// decodeWALRecord decodes one binary record payload into rec.
func decodeWALRecord(payload []byte, rec *walRecord) error {
	d := wire.NewDec(payload)
	code := int(d.Byte())
	if code < 1 || code > len(walKindNames) {
		return fmt.Errorf("enact: unknown wal record kind code %d", code)
	}
	rec.Kind = walKindNames[code-1]
	rec.Seq = int64(d.Uvarint())
	d.Varint() // reserved
	d.Varint()
	d.Varint()
	rec.User = d.String()
	rec.Proc = d.String()
	rec.Act = d.String()
	rec.Var = d.String()
	rec.Schema = d.String()
	rec.To = d.String()
	rec.Ctx = d.String()
	rec.Field = d.String()
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		rec.Inputs = make(map[string]string, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			k := d.String()
			rec.Inputs[k] = d.String()
		}
	}
	if d.Bool() {
		rec.Value = decodeWireValue(d)
	}
	if d.Bool() {
		rec.AV = &walActivityVar{}
		if err := json.Unmarshal(d.Bytes(), rec.AV); err != nil {
			return fmt.Errorf("enact: wal record av: %w", err)
		}
	}
	rec.Enable = d.Bool()
	if d.Bool() {
		rec.Dep = &walDependency{}
		if err := json.Unmarshal(d.Bytes(), rec.Dep); err != nil {
			return fmt.Errorf("enact: wal record dep: %w", err)
		}
	}
	if d.Bool() {
		rec.Defs = &walSchemaTable{}
		if err := json.Unmarshal(d.Bytes(), rec.Defs); err != nil {
			return fmt.Errorf("enact: wal record defs: %w", err)
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		rec.G = make([]bool, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			rec.G = append(rec.G, d.Bool())
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	if d.Len() == 0 {
		return fmt.Errorf("enact: v1 wal record without the id section: %w", journal.ErrLegacy)
	}
	rec.Fam = d.String()
	rec.PID = int(d.Varint())
	if n := d.Uvarint(); d.Err() == nil {
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			rec.AIDs = append(rec.AIDs, int(d.Varint()))
		}
	}
	if n := d.Uvarint(); d.Err() == nil {
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			rec.CIDs = append(rec.CIDs, int(d.Varint()))
		}
	}
	return d.Err()
}

// walRecordSeq peeks the sequence number of a binary record payload
// without decoding the rest — the TruncateThrough filter.
func walRecordSeq(payload []byte) (int64, bool) {
	d := wire.NewDec(payload)
	d.Byte()
	seq := d.Uvarint()
	return int64(seq), d.Err() == nil
}
