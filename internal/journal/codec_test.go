package journal

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	stgq "repro"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Mut: stgq.Mutation{Op: stgq.MutAddPerson, Name: "ana", Person: 0}},
		{Seq: 2, Mut: stgq.Mutation{Op: stgq.MutAddPerson, Name: "", Person: 1}},
		{Seq: 3, Mut: stgq.Mutation{Op: stgq.MutConnect, A: 0, B: 1, Distance: 17.5}},
		{Seq: 4, Mut: stgq.Mutation{Op: stgq.MutSetAvailable, Person: 1, From: 36, To: 44}},
		{Seq: 5, Mut: stgq.Mutation{Op: stgq.MutSetBusy, Person: 0, From: 0, To: 48}},
		{Seq: 6, Mut: stgq.Mutation{Op: stgq.MutDisconnect, A: 1, B: 0}},
		{Seq: 7, Mut: stgq.Mutation{Op: stgq.MutSetPolicy, Person: 1, Policy: stgq.ShareFriends}},
		{Seq: 8, Mut: stgq.Mutation{Op: stgq.MutSetLocation, Person: 1, X: -1203.5, Y: 8417.25}},
	}
}

func encodeAll(t *testing.T, recs []Record) ([]byte, []int) {
	t.Helper()
	var data []byte
	var bounds []int // frame end offsets
	for _, rec := range recs {
		var err error
		data, err = appendFrame(data, rec)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, len(data))
	}
	return data, bounds
}

func TestCodecRoundTrip(t *testing.T) {
	want := sampleRecords()
	data, _ := encodeAll(t, want)
	got, consumed := scanFrames(data)
	if consumed != len(data) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestCodecCarriesEveryListedField walks the mutation table: for every
// op, a mutation with every field set survives a frame round trip with
// exactly its listed fields (stgq.MutationOp.Fields) and every other
// field zero.
func TestCodecCarriesEveryListedField(t *testing.T) {
	full := stgq.Mutation{Name: "ana", Person: 3, A: 4, B: 5, Distance: 2.5,
		From: 6, To: 7, Policy: stgq.ShareNone, X: -1.25, Y: 8.5}
	fv := reflect.ValueOf(full)
	for i := 1; i < fv.NumField(); i++ { // field 0 is Op
		if fv.Field(i).IsZero() {
			t.Fatalf("fixture leaves Mutation.%s zero", fv.Type().Field(i).Name)
		}
	}
	ops := 0
	for op := stgq.MutationOp(1); op.Fields() != nil; op++ {
		ops++
		in, want := full, stgq.Mutation{Op: op}
		in.Op = op
		wv := reflect.ValueOf(&want).Elem()
		for _, name := range op.Fields() {
			wv.FieldByName(name).Set(fv.FieldByName(name))
		}
		frame, err := EncodeFrame(Record{Seq: 9, Mut: in})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got, n, err := ReadFrame(frame)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if n != len(frame) {
			t.Fatalf("%v: read %d of the frame's %d bytes", op, n, len(frame))
		}
		if got != (Record{Seq: 9, Mut: want}) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", op, got.Mut, want)
		}
	}
	if ops < 7 {
		t.Fatalf("mutation table lists %d ops, want the seven Mut* kinds", ops)
	}
	for op := ops + 1; op < 256; op++ {
		if stgq.MutationOp(op).Fields() != nil {
			t.Fatalf("mutation table has a hole before op %d", op)
		}
	}
}

// TestReadFrameRejectsDamage: a replicated frame that is cut short or
// fails its CRC is an ErrCorrupt, never a record; bytes after a whole
// frame are left to the next read.
func TestReadFrameRejectsDamage(t *testing.T) {
	frame, _ := encodeAll(t, sampleRecords()[2:3])
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 1
	for name, data := range map[string][]byte{
		"empty":    nil,
		"short":    frame[:len(frame)-1],
		"bit flip": flipped,
	} {
		if rec, _, err := ReadFrame(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded %+v, err %v; want ErrCorrupt", name, rec, err)
		}
	}
	if _, n, err := ReadFrame(append(append([]byte(nil), frame...), 0)); err != nil || n != len(frame) {
		t.Errorf("trailing byte: read %d bytes, err %v; want the frame's %d", n, err, len(frame))
	}
}

// TestCodecTruncationIsPrefixClosed cuts the encoded stream at every
// possible byte offset and checks the scan yields exactly the records
// whose frames fit completely — the torn-tail contract recovery relies on.
func TestCodecTruncationIsPrefixClosed(t *testing.T) {
	recs := sampleRecords()
	data, bounds := encodeAll(t, recs)
	for off := 0; off <= len(data); off++ {
		wantN := 0
		for _, b := range bounds {
			if b <= off {
				wantN++
			}
		}
		got, consumed := scanFrames(data[:off])
		if len(got) != wantN {
			t.Fatalf("truncated at %d: got %d records, want %d", off, len(got), wantN)
		}
		if wantN > 0 && consumed != bounds[wantN-1] {
			t.Fatalf("truncated at %d: consumed %d, want %d", off, consumed, bounds[wantN-1])
		}
	}
}

func TestCodecRejectsBitFlips(t *testing.T) {
	data, _ := encodeAll(t, sampleRecords()[:1])
	for bit := 0; bit < len(data)*8; bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		// Every byte is covered: a flipped length prefix breaks framing,
		// a flipped CRC or payload fails the checksum.
		if recs, _ := scanFrames(flipped); len(recs) > 0 {
			t.Fatalf("bit flip %d produced a decoded record: %+v", bit, recs[0])
		}
	}
}

func TestCodecRejectsUnknownOp(t *testing.T) {
	if _, err := appendFrame(nil, Record{Seq: 1, Mut: stgq.Mutation{Op: stgq.MutationOp(99)}}); err == nil {
		t.Fatal("encoding unknown op should fail")
	}
}

func TestCodecBoundsGiantLength(t *testing.T) {
	// A corrupted length prefix must not make the scanner read past the
	// buffer or allocate wildly: it reads as a torn tail.
	data := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3}
	recs, consumed := scanFrames(data)
	if len(recs) != 0 || consumed != 0 {
		t.Fatalf("giant length: %d records, %d consumed", len(recs), consumed)
	}
}

// TestCodecGoldenBytes pins the on-disk encoding of every mutation op:
// journals written by earlier builds must keep replaying, and followers
// decode the same frames, so any change here is a format break.
func TestCodecGoldenBytes(t *testing.T) {
	// One frame per sample record: u32 length, u32 CRC-32C, then the
	// payload (version 1, op, seq, the op's fields).
	const want = "" +
		"080000001b4f8f440101010003616e61" + // add-person 0 "ana"
		"050000005b79ebfc0101020100" + // add-person 1 ""
		"0d000000106d9a3f01020300010000000000803140" + // connect 0-1 17.5
		"060000007ec9c3da01040401242c" + // set-available 1 [36,44)
		"060000007514caf6010505000030" + // set-busy 0 [0,48)
		"05000000c0fe52dd0103060100" + // disconnect 1-0
		"05000000f6741f2c0106070101" + // set-policy 1 friends
		"14000000d3a08a4e010708010000000000ce92c000000000a070c040" // set-location 1 (-1203.5, 8417.25)
	data, _ := encodeAll(t, sampleRecords())
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("encoded sample records changed:\n got %s\nwant %s", got, want)
	}
}
