package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"nakika/internal/wire"
)

// Wire format: every frame is a 4-byte big-endian length followed by that
// many payload bytes. The first frame each way is the handshake and every
// later frame carries a mux header (mux_conn.go) in front of a request or
// reply payload. A request payload is
//
//	str(from) str(to) str(type) str(key) uvarint(nargs) str(arg)... bytes(body)
//	[uvarint(trace)]
//
// and a reply payload is
//
//	byte(status) — 0 ok, 1 remote error
//	ok:    str(type) str(key) uvarint(nargs) str(arg)... bytes(body)
//	error: str(message)
//
// where str and bytes are uvarint-length-prefixed byte strings
// (internal/wire). The frame cap bounds memory taken by a single message on
// either side.

// maxFrame bounds a single wire frame (16 MiB): larger cache bodies are
// refused rather than buffered.
const maxFrame = 16 << 20

// appendMessage appends the message fields a request and an ok reply share:
//
//	str(type) str(key) uvarint(nargs) str(arg)... bytes(body)
func appendMessage(buf []byte, msg Message) []byte {
	buf = wire.AppendString(buf, msg.Type)
	buf = wire.AppendString(buf, msg.Key)
	buf = wire.AppendUvarint(buf, uint64(len(msg.Args)))
	for _, a := range msg.Args {
		buf = wire.AppendString(buf, a)
	}
	return wire.AppendBytes(buf, msg.Body)
}

// readMessage reads one appendMessage-encoded message; the body is copied
// out of the frame.
func readMessage(r *wire.Reader) (msg Message, err error) {
	if msg.Type, err = r.String(); err != nil {
		return
	}
	if msg.Key, err = r.String(); err != nil {
		return
	}
	nargs, err := r.Uvarint()
	if err != nil {
		return
	}
	if nargs > uint64(r.Len()) { // cheap sanity bound before allocating
		return msg, wire.ErrMalformed
	}
	for i := uint64(0); i < nargs; i++ {
		var a string
		if a, err = r.String(); err != nil {
			return
		}
		msg.Args = append(msg.Args, a)
	}
	msg.Body, err = r.CopyBytes()
	return
}

// appendRequest appends a request frame payload (without the frame length).
func appendRequest(buf []byte, from, to string, msg Message) []byte {
	buf = wire.AppendString(buf, from)
	buf = wire.AppendString(buf, to)
	buf = appendMessage(buf, msg)
	// The trace id is a trailing optional field: absent when zero, so an
	// untraced frame carries no bytes for it.
	if msg.Trace != 0 {
		buf = wire.AppendUvarint(buf, msg.Trace)
	}
	return buf
}

// decodeRequest parses a request frame payload.
func decodeRequest(payload []byte) (from, to string, msg Message, err error) {
	r := wire.NewReader(payload)
	if from, err = r.String(); err != nil {
		return
	}
	if to, err = r.String(); err != nil {
		return
	}
	if msg, err = readMessage(r); err != nil {
		return
	}
	// Optional trailing trace id (see appendRequest). A malformed tail is
	// ignored rather than rejected: the request itself decoded fine.
	if r.Len() > 0 {
		if tr, terr := r.Uvarint(); terr == nil {
			msg.Trace = tr
		}
	}
	return
}

// appendReply appends a reply frame payload.
func appendReply(buf []byte, msg Message, remoteErr error) []byte {
	if remoteErr != nil {
		buf = append(buf, 1)
		return wire.AppendString(buf, remoteErr.Error())
	}
	buf = append(buf, 0)
	return appendMessage(buf, msg)
}

// decodeReply parses a reply frame payload.
func decodeReply(payload []byte) (Message, error) {
	r := wire.NewReader(payload)
	status, err := r.Byte()
	if err != nil {
		return Message{}, err
	}
	if status != 0 {
		text, err := r.String()
		if err != nil {
			return Message{}, err
		}
		return Message{}, remoteError{msg: text}
	}
	msg, err := readMessage(r)
	if err != nil {
		return Message{}, err
	}
	return msg, nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame too large (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
