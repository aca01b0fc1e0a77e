package delivery

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/mcc-cmi/cmi/internal/wire"
)

// Binary journal record codec: one journal record payload per notif,
// ack, bare key or id high-water mark. Every payload starts with its
// kind and the participant whose queue it belongs to:
//
//	notif:  kind=1, participant, id varint, then the record tail: key
//	        and the notification body
//	ack:    kind=2, participant, id varint
//	key:    kind=3, participant, key string
//	next:   kind=4, participant, next-id varint
//
// The notification body is time, schema, description, priority varint,
// acked bool, and the params map. New fields append after params. A
// fan-out encodes a notif tail once and prefixes each recipient's
// kind, participant and id to it.
const (
	recNotif = 1
	recAck   = 2
	recKey   = 3
	recNext  = 4
)

// Param value tags. SanitizeParams emits nil, string, bool, int64 and
// []string; float64 appears in maps that round-tripped through JSON,
// and anything else falls back to an embedded JSON value.
const (
	pvNil     = 0
	pvString  = 1
	pvBool    = 2
	pvInt     = 3
	pvFloat   = 4
	pvStrings = 5
	pvJSON    = 6
)

func appendParamValue(dst []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(dst, pvNil)
	case string:
		dst = append(dst, pvString)
		return wire.AppendString(dst, v)
	case bool:
		dst = append(dst, pvBool)
		return wire.AppendBool(dst, v)
	case int64:
		dst = append(dst, pvInt)
		return wire.AppendVarint(dst, v)
	case int:
		dst = append(dst, pvInt)
		return wire.AppendVarint(dst, int64(v))
	case float64:
		dst = append(dst, pvFloat)
		return wire.AppendUint64LE(dst, math.Float64bits(v))
	case []string:
		dst = append(dst, pvStrings)
		dst = wire.AppendUvarint(dst, uint64(len(v)))
		for _, s := range v {
			dst = wire.AppendString(dst, s)
		}
		return dst
	default:
		b, err := json.Marshal(v)
		if err != nil {
			b = nil // decodes back to nil; SanitizeParams never produces such a value
		}
		dst = append(dst, pvJSON)
		return wire.AppendBytes(dst, b)
	}
}

func decodeParamValue(d *wire.Dec) any {
	switch d.Byte() {
	case pvNil:
		return nil
	case pvString:
		return d.String()
	case pvBool:
		return d.Bool()
	case pvInt:
		return d.Varint()
	case pvFloat:
		return math.Float64frombits(d.Uint64LE())
	case pvStrings:
		n := d.Uvarint()
		out := make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			out = append(out, d.String())
		}
		return out
	case pvJSON:
		b := d.Bytes()
		if len(b) == 0 {
			return nil
		}
		var v any
		if json.Unmarshal(b, &v) != nil {
			return nil
		}
		return v
	default:
		return nil
	}
}

// appendNotifBody encodes the notification fields shared by the journal
// record and the federation spool entry (everything but the id).
func appendNotifBody(dst []byte, n *Notification) []byte {
	dst = wire.AppendTime(dst, n.Time)
	dst = wire.AppendString(dst, n.Schema)
	dst = wire.AppendString(dst, n.Description)
	dst = wire.AppendVarint(dst, int64(n.Priority))
	dst = wire.AppendBool(dst, n.Acked)
	dst = wire.AppendUvarint(dst, uint64(len(n.Params)))
	for k, v := range n.Params {
		dst = wire.AppendString(dst, k)
		dst = appendParamValue(dst, v)
	}
	return dst
}

func decodeNotifBody(d *wire.Dec, n *Notification) {
	n.Time = d.Time()
	n.Schema = d.String()
	n.Description = d.String()
	n.Priority = int(d.Varint())
	n.Acked = d.Bool()
	if cnt := d.Uvarint(); cnt > 0 && d.Err() == nil {
		n.Params = make(map[string]any, cnt)
		for i := uint64(0); i < cnt && d.Err() == nil; i++ {
			k := d.String()
			n.Params[k] = decodeParamValue(d)
		}
	}
}

// AppendNotificationBinary encodes a full notification (id included, as
// a varint) — the shared body codec reused by the federation spool.
func AppendNotificationBinary(dst []byte, n *Notification) []byte {
	dst = wire.AppendVarint(dst, n.ID)
	return appendNotifBody(dst, n)
}

// DecodeNotificationBinary decodes a notification encoded by
// AppendNotificationBinary from d.
func DecodeNotificationBinary(d *wire.Dec) (Notification, error) {
	var n Notification
	n.ID = d.Varint()
	decodeNotifBody(d, &n)
	return n, d.Err()
}

// appendRecordHead starts a journal-record payload: its kind and its
// participant.
func appendRecordHead(dst []byte, kind byte, participant string) []byte {
	dst = append(dst, kind)
	return wire.AppendString(dst, participant)
}

// appendNotifTail encodes the part of a notif record every recipient of
// a fan-out shares: the idempotency key and the notification body.
func appendNotifTail(dst []byte, key string, n *Notification) []byte {
	dst = wire.AppendString(dst, key)
	return appendNotifBody(dst, n)
}

// appendNotifRecord encodes one recipient's notif record payload around
// a tail built by appendNotifTail.
func appendNotifRecord(dst []byte, participant string, id int64, tail []byte) []byte {
	dst = appendRecordHead(dst, recNotif, participant)
	dst = wire.AppendVarint(dst, id)
	return append(dst, tail...)
}

// appendRecordNotif encodes a whole notif record payload.
func appendRecordNotif(dst []byte, participant, key string, n *Notification) []byte {
	dst = appendRecordHead(dst, recNotif, participant)
	dst = wire.AppendVarint(dst, n.ID)
	return appendNotifTail(dst, key, n)
}

func appendRecordAck(dst []byte, participant string, id int64) []byte {
	dst = appendRecordHead(dst, recAck, participant)
	return wire.AppendVarint(dst, id)
}

func appendRecordKey(dst []byte, participant, key string) []byte {
	dst = appendRecordHead(dst, recKey, participant)
	return wire.AppendString(dst, key)
}

func appendRecordNext(dst []byte, participant string, next int64) []byte {
	dst = appendRecordHead(dst, recNext, participant)
	return wire.AppendVarint(dst, next)
}

// decodeRecord decodes one journal-record payload into r.
func decodeRecord(payload []byte, r *record) error {
	d := wire.NewDec(payload)
	r.Kind = d.Byte()
	r.Participant = d.String()
	switch r.Kind {
	case recNotif:
		r.Notif.ID = d.Varint()
		r.Key = d.String()
		decodeNotifBody(d, &r.Notif)
	case recAck:
		r.AckID = d.Varint()
	case recKey:
		r.Key = d.String()
	case recNext:
		r.NextID = d.Varint()
	default:
		return fmt.Errorf("delivery: unknown journal record kind %d", r.Kind)
	}
	return d.Err()
}

// notifTailSize estimates the encoded tail size for pool sizing.
func notifTailSize(key string, n *Notification) int {
	sz := 24 + len(key) + len(n.Schema) + len(n.Description)
	for k, v := range n.Params {
		sz += len(k) + 16
		switch v := v.(type) {
		case string:
			sz += len(v)
		case []string:
			for _, s := range v {
				sz += len(s) + 4
			}
		}
	}
	return sz
}
