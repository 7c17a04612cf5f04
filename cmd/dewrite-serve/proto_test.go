package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// readRequestAlloc is the decoder readRequest replaced: it reads each frame's
// body into a fresh allocation, so no frame can show another's bytes.
// FuzzFrame holds the reused-buffer decoder to it.
func readRequestAlloc(r io.Reader) (op byte, key, val []byte, deadlineMs uint16, err error) {
	var hdr [9]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
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
	buf := make([]byte, keyLen+valLen)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, nil, 0, err
	}
	return op, buf[:keyLen], buf[keyLen:], deadlineMs, nil
}

// rawFrame frames a request with any header fields; writeRequest refuses
// the oversized lengths some seeds need.
func rawFrame(op byte, keyLen uint16, valLen uint32, deadlineMs uint16, body []byte) []byte {
	b := []byte{op}
	b = binary.BigEndian.AppendUint16(b, keyLen)
	b = binary.BigEndian.AppendUint32(b, valLen)
	b = binary.BigEndian.AppendUint16(b, deadlineMs)
	return append(b, body...)
}

// FuzzFrame decodes a byte string as a stream of request frames, frame by
// frame, with readRequest reusing one buffer and with the allocating oracle.
// Op, key, value, deadline and the error verdict must agree on every frame,
// and each decoded value must round-trip writeResponse → readResponse.
func FuzzFrame(f *testing.F) {
	fill := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	long := rawFrame(OpPut, 40, 200, 0, append(fill(40, 'K'), fill(200, 'V')...))
	short := rawFrame(OpPut, 3, 4, 0, []byte("keyval!"))
	get := rawFrame(OpGet, 3, 0, 0, []byte("key"))
	full := rawFrame(OpPut, MaxKeyLen, ValueCap, 0, append(fill(MaxKeyLen, 'k'), fill(ValueCap, 'v')...))
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	f.Add(cat(long, short, get))                                               // a short frame after a long one
	f.Add(cat(full, get, full))                                                // both lengths at their caps
	f.Add(cat(short, rawFrame(OpPut, MaxKeyLen+1, 0, 0, nil)))                 // key one past its cap
	f.Add(cat(short, rawFrame(OpPut, 1, ValueCap+1, 0, []byte("k"))))          // value one past its cap
	f.Add(long[:5])                                                            // truncated header
	f.Add(cat(short, long[:100]))                                              // truncated body
	f.Add(rawFrame(OpGet, 1, 0, 0xbeef, []byte("k")))                          // deadline field
	f.Add(cat(rawFrame(9, 2, 1, 7, []byte("abc")), rawFrame(0, 0, 0, 0, nil))) // unknown opcodes
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		oracle := bytes.NewReader(data)
		br := bufio.NewReader(bytes.NewReader(data))
		var frame [frameCap]byte
		var resp bytes.Buffer
		bw := bufio.NewWriter(&resp)
		for i := 0; ; i++ {
			wantOp, wantKey, wantVal, wantDl, wantErr := readRequestAlloc(oracle)
			op, key, val, dl, err := readRequest(br, frame[:])
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("frame %d: error %v, oracle %v", i, err, wantErr)
			}
			if wantErr != nil {
				return
			}
			if op != wantOp || dl != wantDl || !bytes.Equal(key, wantKey) || !bytes.Equal(val, wantVal) {
				t.Fatalf("frame %d: decoded op %d key %q val %q deadline %d, oracle op %d key %q val %q deadline %d",
					i, op, key, val, dl, wantOp, wantKey, wantVal, wantDl)
			}

			resp.Reset()
			if err := writeResponse(bw, op, val); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			status, got, err := readResponse(&resp)
			if err != nil || status != op || !bytes.Equal(got, val) || resp.Len() != 0 {
				t.Fatalf("frame %d: response round trip gave status %d val %q err %v with %d bytes left, want status %d val %q",
					i, status, got, err, resp.Len(), op, val)
			}
		}
	})
}
