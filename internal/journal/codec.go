package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"

	stgq "repro"
)

// On-disk frame layout (little endian):
//
//	u32  payload length
//	u32  CRC-32C of the payload
//	payload:
//	    u8      codec version (currently 1)
//	    u8      mutation op
//	    uvarint sequence number
//	    the op's fields in stgq.MutationOp.Fields order: uvarint for
//	    ints, 8 fixed bytes for floats, uvarint length + bytes for the
//	    name
//
// A reader that finds fewer bytes than a full header, a length beyond the
// segment, or a CRC mismatch at the end of the final segment is looking at
// a torn append and truncates from there.

const (
	codecVersion = 1
	headerSize   = 8
	// maxPayload bounds a single record so a corrupted length prefix
	// cannot trigger a giant allocation. Names are the only variable
	// part; 1 MiB is orders of magnitude above any legitimate record.
	maxPayload = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireFields[op] holds the Mutation struct-field indices of op's wire
// fields, in order: the mutation table's field list (op.Fields), resolved
// once.
var wireFields = func() (idx [256][]int) {
	t := reflect.TypeFor[stgq.Mutation]()
	for op := range idx {
		for _, name := range stgq.MutationOp(op).Fields() {
			f, ok := t.FieldByName(name)
			if !ok || f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Float64 && f.Type.Kind() != reflect.String {
				panic("journal: no wire encoding for stgq.Mutation field " + name)
			}
			idx[op] = append(idx[op], f.Index[0])
		}
	}
	return idx
}()

// Frame errors are preallocated: recovery probes every byte offset of a
// damaged tail for a valid frame (containsValidFrame).
var (
	errTornFrame = fmt.Errorf("%w: incomplete frame", ErrCorrupt)
	errFrameCRC  = fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
)

// EncodeFrame returns rec as one CRC frame, byte for byte what a journal
// segment stores. Replication ships records in this form.
func EncodeFrame(rec Record) ([]byte, error) { return appendFrame(nil, rec) }

// DecodeFrame parses a frame made by EncodeFrame, checking its length
// and CRC; any damage is an ErrCorrupt error.
func DecodeFrame(frame []byte) (Record, error) {
	rec, n, err := readFrame(frame)
	if err == nil && n != len(frame) {
		err = fmt.Errorf("%w: %d bytes after the frame", ErrCorrupt, len(frame)-n)
	}
	return rec, err
}

// readFrame decodes the frame at the start of data and returns its
// record and size. An error means data does not start with a complete,
// CRC-valid frame of a known op.
func readFrame(data []byte) (Record, int, error) {
	if len(data) < headerSize {
		return Record{}, 0, errTornFrame
	}
	length := int(binary.LittleEndian.Uint32(data))
	if length > maxPayload || headerSize+length > len(data) {
		return Record{}, 0, errTornFrame
	}
	payload := data[headerSize : headerSize+length]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return Record{}, 0, errFrameCRC
	}
	rec, err := decodePayload(payload)
	return rec, headerSize + length, err
}

// appendFrame encodes rec as a framed record appended to dst.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	fields := wireFields[rec.Mut.Op]
	if fields == nil {
		return nil, fmt.Errorf("journal: cannot encode op %v", rec.Mut.Op)
	}
	payload := make([]byte, 0, 32+len(rec.Mut.Name))
	payload = append(payload, codecVersion, byte(rec.Mut.Op))
	payload = binary.AppendUvarint(payload, rec.Seq)
	m := reflect.ValueOf(&rec.Mut).Elem()
	for _, i := range fields {
		switch f := m.Field(i); f.Kind() {
		case reflect.Int:
			payload = binary.AppendUvarint(payload, uint64(f.Int()))
		case reflect.Float64:
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(f.Float()))
		case reflect.String:
			payload = binary.AppendUvarint(payload, uint64(f.Len()))
			payload = append(payload, f.String()...)
		}
	}
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

// decodePayload parses one CRC-verified payload.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 2 {
		return Record{}, fmt.Errorf("%w: payload too short", ErrCorrupt)
	}
	if payload[0] != codecVersion {
		return Record{}, fmt.Errorf("%w: unknown codec version %d", ErrCorrupt, payload[0])
	}
	op := stgq.MutationOp(payload[1])
	fields := wireFields[op]
	if fields == nil {
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, op)
	}
	buf := payload[2:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
		}
		buf = buf[n:]
		return v, nil
	}
	seq, err := next()
	if err != nil {
		return Record{}, err
	}
	rec := Record{Seq: seq, Mut: stgq.Mutation{Op: op}}
	m := reflect.ValueOf(&rec.Mut).Elem()
	for _, i := range fields {
		switch f := m.Field(i); f.Kind() {
		case reflect.Int:
			v, err := next()
			if err != nil {
				return Record{}, err
			}
			f.SetInt(int64(v))
		case reflect.Float64:
			if len(buf) < 8 {
				return Record{}, fmt.Errorf("%w: truncated %s", ErrCorrupt, m.Type().Field(i).Name)
			}
			f.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			buf = buf[8:]
		case reflect.String:
			n, err := next()
			if err != nil {
				return Record{}, err
			}
			if n > uint64(len(buf)) {
				return Record{}, fmt.Errorf("%w: %s length %d exceeds payload", ErrCorrupt, m.Type().Field(i).Name, n)
			}
			f.SetString(string(buf[:n]))
			buf = buf[n:]
		}
	}
	return rec, nil
}

// containsValidFrame reports whether a complete, CRC-valid frame starts at
// any byte offset of data. Recovery uses it to tell a torn tail (partial
// final append: nothing valid after the break) from mid-segment corruption
// (valid, possibly acknowledged frames resume after the damage — which
// must abort recovery, not be silently truncated away). A false positive
// needs a 1-in-2^32 CRC coincidence inside garbage.
func containsValidFrame(data []byte) bool {
	for off := range data {
		if _, _, err := readFrame(data[off:]); err == nil {
			return true
		}
	}
	return false
}

// scanFrames decodes consecutive frames from data. It returns the decoded
// records and the number of bytes consumed by complete, CRC-valid frames.
// consumed < len(data) means the remainder is a torn or corrupt tail; the
// caller decides whether that is tolerable (final segment) or fatal.
func scanFrames(data []byte) (recs []Record, consumed int) {
	return scanFramesLimit(data, math.MaxUint64, 0)
}

// scanFramesLimit is scanFrames bounded for incremental tailing: it stops
// (without consuming) before the first frame whose sequence number exceeds
// maxSeq — a frame written but, as of the caller's durability watermark,
// not yet fsynced — and after maxCount frames (0: unlimited), so consumed
// always counts exactly the returned frames' bytes.
func scanFramesLimit(data []byte, maxSeq uint64, maxCount int) (recs []Record, consumed int) {
	off := 0
	for maxCount <= 0 || len(recs) < maxCount {
		rec, n, err := readFrame(data[off:])
		if err != nil || rec.Seq > maxSeq {
			break
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off
}
