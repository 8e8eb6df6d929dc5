package core

import (
	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/state"
	"nakika/internal/wire"
)

// Binary codecs for the core RPC payloads (replication forwards, range
// syncs, lease operations, offloaded requests, the manifest a
// cache.get answers for a large object). Encoders prefix wire.Magic;
// decoders open their input with wire.Payload and end with wire.Reader.End,
// so a payload in another build's format is an error, never a misread. (The
// rep.sync bodies end in a list that runs to the end of the payload, so
// they read it to its end without a count.)

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

// encodeSyncReq renders a rep.sync request body; the non-zero digests
// follow the asked set as (bucket, digest) pairs to the end of the body.
func encodeSyncReq(req syncReq) []byte {
	buf := wire.AppendUvarint(wire.AppendUvarint([]byte{wire.Magic}, req.From), req.To)
	buf = appendBucketSet(buf, &req.Ask)
	for b, sum := range req.Sums {
		if sum != 0 {
			buf = wire.AppendUvarint(wire.AppendUvarint(buf, uint64(b)), sum)
		}
	}
	return buf
}

// decodeSyncReq parses a rep.sync request.
func decodeSyncReq(payload []byte) (req syncReq, err error) {
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
	err = readBucketSet(&r, &req.Ask)
	for err == nil && r.Len() > 0 {
		b, berr := r.Uvarint()
		if berr != nil || b >= syncBuckets {
			return req, wire.ErrMalformed
		}
		req.Sums[b], err = r.Uvarint()
	}
	return
}

// encodeSyncResp renders a rep.sync reply body; the records run to its
// end.
func encodeSyncResp(resp syncResp) []byte {
	buf := appendBucketSet(appendBucketSet([]byte{wire.Magic}, &resp.Covered), &resp.Left)
	for _, rec := range resp.Recs {
		buf = state.AppendRec(buf, rec)
	}
	return buf
}

// decodeSyncResp parses a rep.sync reply.
func decodeSyncResp(payload []byte) (resp syncResp, err error) {
	r, err := wire.Payload(payload)
	if err != nil {
		return
	}
	if err = readBucketSet(&r, &resp.Covered); err == nil {
		err = readBucketSet(&r, &resp.Left)
	}
	for err == nil && r.Len() > 0 {
		var rec state.Rec
		if rec, err = state.ReadRec(&r); err == nil {
			resp.Recs = append(resp.Recs, rec)
		}
	}
	return
}

// appendBucketSet appends s up to its last non-empty byte.
func appendBucketSet(buf []byte, s *bucketSet) []byte {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return wire.AppendBytes(buf, s[:n])
}

// readBucketSet reads an appendBucketSet set.
func readBucketSet(r *wire.Reader, s *bucketSet) error {
	b, err := r.Bytes()
	if err == nil && len(b) > len(s) {
		err = wire.ErrMalformed
	}
	copy(s[:], b)
	return err
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
