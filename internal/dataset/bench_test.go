package dataset

import (
	"bytes"
	"io"
	"testing"
)

// The dataset file's codec at 10k people (Synthetic, two days): MB/s is
// file bytes a second, so Load and Save read on the same scale. A
// 100k-person file is ~31 MB, and reading it is the first thing a
// -data import does.
func benchFile(b *testing.B) (*Dataset, []byte) {
	b.Helper()
	d := Synthetic(10000, 1, 2)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return d, buf.Bytes()
}

func BenchmarkDatasetLoad(b *testing.B) {
	_, data := benchFile(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetSave(b *testing.B) {
	d, data := benchFile(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := d.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
