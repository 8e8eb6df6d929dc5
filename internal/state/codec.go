package state

import "nakika/internal/wire"

// Binary wire codec for versioned hard-state records, the one state type
// that crosses the transport (rep.store pushes, range-sync replies). The
// encoder is append-style so callers compose it into pooled buffers; the
// self-describing Encode/Decode pair prefixes wire.Magic.

// AppendRec appends rec's binary encoding (no magic byte):
//
//	str(site) str(key) uvarint(ver) str(origin) bool(delete) str(value)
func AppendRec(buf []byte, rec Rec) []byte {
	buf = wire.AppendString(buf, rec.Site)
	buf = wire.AppendString(buf, rec.Key)
	buf = wire.AppendUvarint(buf, rec.Ver)
	buf = wire.AppendString(buf, rec.Origin)
	buf = wire.AppendBool(buf, rec.Delete)
	buf = wire.AppendString(buf, rec.Value)
	return buf
}

// ReadRec reads one AppendRec-encoded record.
func ReadRec(r *wire.Reader) (rec Rec, err error) {
	if rec.Site, err = r.String(); err != nil {
		return
	}
	if rec.Key, err = r.String(); err != nil {
		return
	}
	if rec.Ver, err = r.Uvarint(); err != nil {
		return
	}
	if rec.Origin, err = r.String(); err != nil {
		return
	}
	if rec.Delete, err = r.Bool(); err != nil {
		return
	}
	rec.Value, err = r.String()
	return
}

// EncodeRec renders one record as a self-describing payload (magic byte
// first) suitable for a transport Message body.
func EncodeRec(rec Rec) []byte {
	buf := make([]byte, 0, 32+len(rec.Site)+len(rec.Key)+len(rec.Origin)+len(rec.Value))
	buf = append(buf, wire.Magic)
	return AppendRec(buf, rec)
}

// DecodeRec parses an EncodeRec payload.
func DecodeRec(payload []byte) (Rec, error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return Rec{}, err
	}
	rec, err := ReadRec(&r)
	if err != nil {
		return Rec{}, err
	}
	return rec, r.End()
}
