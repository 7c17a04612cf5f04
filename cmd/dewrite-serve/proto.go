package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dewrite/internal/config"
)

// The wire protocol is a minimal length-prefixed framing over TCP, one
// request/response pair at a time per connection (clients may pipeline by
// opening several connections).
//
//	request:  op(1) keyLen(2 BE) valLen(4 BE) deadlineMs(2 BE) key val
//	response: status(1) valLen(4 BE) val
//
// deadlineMs is the client's per-request deadline budget in milliseconds
// (0 = none): a request that gets its shard's lock only after the budget has
// expired is answered StatusDeadline without touching the controller, so a
// slow epoch barrier turns into a fast retryable verdict instead of a
// stranded connection.
//
// Values are at most ValueCap bytes — one NVM line minus the stored length
// prefix — and keys at most MaxKeyLen. OpStats takes no key and returns the
// metric registry snapshot as JSON.
//
// StatusBusy and StatusDeadline are the retryable verdicts: BUSY means the
// request was shed by admission control (queue full or watermark drain mode)
// before reaching a controller, DEADLINE means it was admitted but its budget
// expired while it waited for the shard lock. Neither counts toward
// serve_requests_total — they land in serve_shed_total — so client-received
// responses always equal serve_requests_total + serve_shed_total (the
// books-balance invariant the chaos soak pins).
const (
	OpPut   byte = 1
	OpGet   byte = 2
	OpStats byte = 3

	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusError    byte = 2
	// StatusBusy is the typed load-shed verdict: the server refused to admit
	// the request. Retryable after backoff.
	StatusBusy byte = 3
	// StatusDeadline reports the request's deadline expired while it waited
	// for its shard. Retryable if the client's budget allows.
	StatusDeadline byte = 4

	// MaxKeyLen bounds request keys.
	MaxKeyLen = 1024
	// ValueCap is the largest storable value: each value occupies one line,
	// led by a 2-byte length so reads return exactly what was put.
	ValueCap = config.LineSize - 2
	// maxStatsLen bounds the only response larger than a line (OpStats).
	maxStatsLen = 1 << 20
)

// writeRequest frames one request onto w. deadlineMs is the per-request
// budget in milliseconds (0 = none).
func writeRequest(w io.Writer, op byte, key string, val []byte, deadlineMs uint16) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("key length %d exceeds %d", len(key), MaxKeyLen)
	}
	if len(val) > ValueCap {
		return fmt.Errorf("value length %d exceeds %d", len(val), ValueCap)
	}
	hdr := make([]byte, 9, 9+len(key)+len(val))
	hdr[0] = op
	binary.BigEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.BigEndian.PutUint32(hdr[3:7], uint32(len(val)))
	binary.BigEndian.PutUint16(hdr[7:9], deadlineMs)
	hdr = append(hdr, key...)
	hdr = append(hdr, val...)
	_, err := w.Write(hdr)
	return err
}

// frameCap is the largest request frame: the header plus the longest key and
// value. A connection decodes every frame into one buffer of this size.
const frameCap = 9 + MaxKeyLen + ValueCap

// readRequest parses one request frame from r into frame, which must hold
// frameCap bytes and is reused for every frame of a connection: key and val
// alias it, so they are valid only until the next call. Both are sliced to
// this frame's lengths, so no byte of an earlier, longer frame shows.
func readRequest(r io.Reader, frame []byte) (op byte, key, val []byte, deadlineMs uint16, err error) {
	hdr := frame[:9]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, nil, nil, 0, err
	}
	op = hdr[0]
	keyLen := int(binary.BigEndian.Uint16(hdr[1:3]))
	valLen := int(binary.BigEndian.Uint32(hdr[3:7]))
	deadlineMs = binary.BigEndian.Uint16(hdr[7:9])
	if keyLen > MaxKeyLen {
		return 0, nil, nil, 0, fmt.Errorf("key length %d exceeds %d", keyLen, MaxKeyLen)
	}
	if valLen > ValueCap {
		return 0, nil, nil, 0, fmt.Errorf("value length %d exceeds %d", valLen, ValueCap)
	}
	body := frame[9 : 9+keyLen+valLen]
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, nil, nil, 0, err
	}
	return op, body[:keyLen], body[keyLen:], deadlineMs, nil
}

// writeResponse frames one response onto w. The header goes out a byte at a
// time: a header array handed to Write would escape through the writer's
// io.Writer and cost an allocation per response.
func writeResponse(w *bufio.Writer, status byte, val []byte) error {
	n := uint32(len(val))
	for _, b := range [5]byte{status, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)} {
		if err := w.WriteByte(b); err != nil {
			return err
		}
	}
	_, err := w.Write(val)
	return err
}

// readResponse parses one response frame from r.
func readResponse(r io.Reader) (status byte, val []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	valLen := int(binary.BigEndian.Uint32(hdr[1:5]))
	if valLen > maxStatsLen {
		return 0, nil, fmt.Errorf("response length %d exceeds %d", valLen, maxStatsLen)
	}
	val = make([]byte, valLen)
	if _, err = io.ReadFull(r, val); err != nil {
		return 0, nil, err
	}
	return hdr[0], val, nil
}

// statusName renders a response status for errors and logs.
func statusName(status byte) string {
	switch status {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not_found"
	case StatusError:
		return "error"
	case StatusBusy:
		return "busy"
	case StatusDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("status_%d", status)
	}
}
