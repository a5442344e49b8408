package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

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

// wireField is one Mutation field the codec can carry.
type wireField uint8

const (
	fieldPerson wireField = iota
	fieldName
	fieldA
	fieldB
	fieldDistance
	fieldFrom
	fieldTo
	fieldPolicy
	fieldX
	fieldY
)

// wireFieldNames names each wireField's Mutation field.
var wireFieldNames = [...]string{fieldPerson: "Person", fieldName: "Name", fieldA: "A", fieldB: "B",
	fieldDistance: "Distance", fieldFrom: "From", fieldTo: "To", fieldPolicy: "Policy", fieldX: "X", fieldY: "Y"}

// wireFields[op] holds op's wire fields in order: the mutation table's
// field list (op.Fields), resolved once.
var wireFields = func() (ids [256][]wireField) {
	for op := range ids {
		for _, name := range stgq.MutationOp(op).Fields() {
			id := slices.Index(wireFieldNames[:], name)
			if id < 0 {
				panic("journal: no wire encoding for stgq.Mutation field " + name)
			}
			ids[op] = append(ids[op], wireField(id))
		}
	}
	return ids
}()

// intField returns the int field id of m; ok is false for the name and
// the floats.
func intField(m *stgq.Mutation, id wireField) (p *int, ok bool) {
	switch id {
	case fieldPerson:
		return (*int)(&m.Person), true
	case fieldA:
		return (*int)(&m.A), true
	case fieldB:
		return (*int)(&m.B), true
	case fieldFrom:
		return &m.From, true
	case fieldTo:
		return &m.To, true
	case fieldPolicy:
		return (*int)(&m.Policy), true
	}
	return nil, false
}

// floatField returns the float field id of m, or nil.
func floatField(m *stgq.Mutation, id wireField) *float64 {
	switch id {
	case fieldDistance:
		return &m.Distance
	case fieldX:
		return &m.X
	case fieldY:
		return &m.Y
	}
	return nil
}

// Frame errors are preallocated: recovery probes every byte offset of a
// damaged tail for a valid frame (containsValidFrame).
var (
	errTornFrame = fmt.Errorf("%w: incomplete frame", ErrCorrupt)
	errFrameCRC  = fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)

	errTruncatedVarint = fmt.Errorf("%w: truncated varint", ErrCorrupt)
)

// EncodeFrame returns rec as one CRC frame, byte for byte what a journal
// segment stores.
func EncodeFrame(rec Record) ([]byte, error) { return appendFrame(nil, rec) }

// ReadFrame decodes the frame at the start of data and returns its
// record and size. An error means data does not start with a complete,
// CRC-valid frame of a known op; it is always an ErrCorrupt. Replication
// walks a records section with it, frame by frame.
func ReadFrame(data []byte) (Record, int, error) {
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

// appendFrame encodes rec as a framed record appended to dst. It writes
// the payload in place after a header it fills in last, so a dst with
// room to spare costs no allocation.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	fields := wireFields[rec.Mut.Op]
	if fields == nil {
		return nil, fmt.Errorf("journal: cannot encode op %v", rec.Mut.Op)
	}
	start := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	dst = append(dst, codecVersion, byte(rec.Mut.Op))
	dst = binary.AppendUvarint(dst, rec.Seq)
	m := &rec.Mut
	for _, id := range fields {
		if p, ok := intField(m, id); ok {
			dst = binary.AppendUvarint(dst, uint64(*p))
		} else if p := floatField(m, id); p != nil {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(*p))
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(m.Name)))
			dst = append(dst, m.Name...)
		}
	}
	payload := dst[start+headerSize:]
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("journal: record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
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
	seq, n := binary.Uvarint(buf)
	if n <= 0 {
		return Record{}, errTruncatedVarint
	}
	buf = buf[n:]
	rec := Record{Seq: seq, Mut: stgq.Mutation{Op: op}}
	m := &rec.Mut
	for _, id := range fields {
		if p, ok := intField(m, id); ok {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return Record{}, errTruncatedVarint
			}
			*p = int(v)
			buf = buf[n:]
		} else if p := floatField(m, id); p != nil {
			if len(buf) < 8 {
				return Record{}, fmt.Errorf("%w: truncated %s", ErrCorrupt, wireFieldNames[id])
			}
			*p = math.Float64frombits(binary.LittleEndian.Uint64(buf))
			buf = buf[8:]
		} else {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return Record{}, errTruncatedVarint
			}
			buf = buf[n:]
			if v > uint64(len(buf)) {
				return Record{}, fmt.Errorf("%w: %s length %d exceeds payload", ErrCorrupt, wireFieldNames[id], v)
			}
			m.Name = string(buf[:v])
			buf = buf[v:]
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
		if _, _, err := ReadFrame(data[off:]); err == nil {
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
	for {
		rec, n, err := ReadFrame(data[consumed:])
		if err != nil {
			return recs, consumed
		}
		recs = append(recs, rec)
		consumed += n
	}
}
