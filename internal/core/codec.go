package core

import (
	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/state"
	"nakika/internal/wire"
)

// Binary codecs for the core RPC payloads (replication forwards, handoff
// range streams, lease operations, offloaded requests, the manifest a
// cache.get answers for a large object). Encoders prefix wire.Magic;
// decoders open their input with wire.Payload and end with wire.Reader.End,
// so a payload in another build's format is an error, never a misread.

// encodeRepForward renders a rep.put / rep.del / rep.get body.
func encodeRepForward(req repForward) []byte {
	buf := make([]byte, 0, 16+len(req.Site)+len(req.Key)+len(req.Value))
	buf = append(buf, wire.Magic)
	buf = wire.AppendString(buf, req.Site)
	buf = wire.AppendString(buf, req.Key)
	buf = wire.AppendString(buf, req.Value)
	return buf
}

// decodeRepForward parses a rep forward body.
func decodeRepForward(payload []byte) (req repForward, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return
	}
	if req.Site, err = r.String(); err != nil {
		return
	}
	if req.Key, err = r.String(); err != nil {
		return
	}
	if req.Value, err = r.String(); err == nil {
		err = r.End()
	}
	return
}

// encodeRepRangeReq renders a rep.range request body.
func encodeRepRangeReq(req repRangeReq) []byte {
	buf := make([]byte, 0, 32+len(req.After))
	buf = append(buf, wire.Magic)
	buf = wire.AppendUvarint(buf, req.From)
	buf = wire.AppendUvarint(buf, req.To)
	buf = wire.AppendString(buf, req.After)
	buf = wire.AppendUvarint(buf, uint64(req.Limit))
	return buf
}

// decodeRepRangeReq parses a rep.range request.
func decodeRepRangeReq(payload []byte) (req repRangeReq, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return
	}
	if req.From, err = r.Uvarint(); err != nil {
		return
	}
	if req.To, err = r.Uvarint(); err != nil {
		return
	}
	if req.After, err = r.String(); err != nil {
		return
	}
	limit, err2 := r.Uvarint()
	if err2 != nil {
		err = err2
		return
	}
	req.Limit = int(limit)
	err = r.End()
	return
}

// encodeRepRangeResp renders one handoff chunk.
func encodeRepRangeResp(resp repRangeResp) []byte {
	size := 16
	for i := range resp.Recs {
		rec := &resp.Recs[i]
		size += 32 + len(rec.Site) + len(rec.Key) + len(rec.Origin) + len(rec.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, wire.Magic)
	buf = wire.AppendUvarint(buf, uint64(len(resp.Recs)))
	for _, rec := range resp.Recs {
		buf = state.AppendRec(buf, rec)
	}
	return wire.AppendBool(buf, resp.More)
}

// decodeRepRangeResp parses one handoff chunk.
func decodeRepRangeResp(payload []byte) (resp repRangeResp, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return
	}
	nrecs, err2 := r.Uvarint()
	if err2 != nil {
		err = err2
		return
	}
	if nrecs > uint64(r.Len()) { // cheap sanity bound before allocating
		err = wire.ErrMalformed
		return
	}
	if nrecs > 0 {
		resp.Recs = make([]state.Rec, 0, nrecs)
	}
	for i := uint64(0); i < nrecs; i++ {
		var rec state.Rec
		if rec, err = state.ReadRec(&r); err != nil {
			return
		}
		resp.Recs = append(resp.Recs, rec)
	}
	if resp.More, err = r.Bool(); err == nil {
		err = r.End()
	}
	return
}

// leaseReq is the body of lease.acquire / lease.renew / lease.release.
type leaseReq struct {
	Site, Name, Holder string
	Token              uint64
	TTL                int64
}

// encodeLeaseReq renders a lease operation body.
func encodeLeaseReq(req leaseReq) []byte {
	buf := make([]byte, 0, 32+len(req.Site)+len(req.Name)+len(req.Holder))
	buf = append(buf, wire.Magic)
	buf = wire.AppendString(buf, req.Site)
	buf = wire.AppendString(buf, req.Name)
	buf = wire.AppendString(buf, req.Holder)
	buf = wire.AppendUvarint(buf, req.Token)
	return wire.AppendVarint(buf, req.TTL)
}

// decodeLeaseReq parses a lease operation body.
func decodeLeaseReq(payload []byte) (req leaseReq, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return
	}
	if req.Site, err = r.String(); err != nil {
		return
	}
	if req.Name, err = r.String(); err != nil {
		return
	}
	if req.Holder, err = r.String(); err != nil {
		return
	}
	if req.Token, err = r.Uvarint(); err != nil {
		return
	}
	if req.TTL, err = r.Varint(); err == nil {
		err = r.End()
	}
	return
}

// leaseFenced is the body of lease.fput (client → acting owner; Rec
// carries only site/key/value, the owner assigns the version) and
// lease.fstore (owner → replica; Rec is fully versioned).
type leaseFenced struct {
	Guard  string
	Holder string
	Token  uint64
	Rec    state.Rec
}

// encodeLeaseFenced renders a fenced-write body.
func encodeLeaseFenced(req leaseFenced) []byte {
	buf := make([]byte, 0, 48+len(req.Guard)+len(req.Holder)+len(req.Rec.Site)+len(req.Rec.Key)+len(req.Rec.Value))
	buf = append(buf, wire.Magic)
	buf = wire.AppendString(buf, req.Guard)
	buf = wire.AppendString(buf, req.Holder)
	buf = wire.AppendUvarint(buf, req.Token)
	return state.AppendRec(buf, req.Rec)
}

// decodeLeaseFenced parses a fenced-write body.
func decodeLeaseFenced(payload []byte) (req leaseFenced, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return
	}
	if req.Guard, err = r.String(); err != nil {
		return
	}
	if req.Holder, err = r.String(); err != nil {
		return
	}
	if req.Token, err = r.Uvarint(); err != nil {
		return
	}
	if req.Rec, err = state.ReadRec(&r); err == nil {
		err = r.End()
	}
	return
}

// encodeOffloadRequest renders an off.exec body from the pipeline request.
func encodeOffloadRequest(req *httpmsg.Request) []byte {
	return httpmsg.EncodeRequest(req)
}

// decodeOffloadRequest parses an off.exec body.
func decodeOffloadRequest(payload []byte) (*httpmsg.Request, error) {
	return httpmsg.DecodeRequest(payload)
}

// encodeManifest renders the body of a cache.get "manifest" reply.
func encodeManifest(m *largeobject.Manifest) []byte {
	return largeobject.AppendManifest([]byte{wire.Magic}, m)
}

// decodeManifest parses a cache.get "manifest" reply body.
func decodeManifest(payload []byte) (*largeobject.Manifest, error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return nil, err
	}
	m, err := largeobject.ReadManifest(&r)
	if err == nil {
		err = r.End()
	}
	return m, err
}
