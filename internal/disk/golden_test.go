package disk

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qpi/internal/data"
	"qpi/internal/storage"
)

// writeTableGolden is the SHA-256 of the file TestWriteTableGolden writes.
// The file format is a contract with every file already written, so a
// change here is a format change, not a test update.
const writeTableGolden = "34a4c0cbe2f62aaff74e148a982f54cc83a075cdb937cd809b0aed766bef4f1a"

// TestWriteTableGolden pins the table-file bytes across changes to how a
// table is stored. The table has every lane shape the storage layer
// distinguishes — int, float and string columns, an int column with NULLs,
// a column of mixed kinds and one NULL throughout — over three full blocks
// and a partial one.
func TestWriteTableGolden(t *testing.T) {
	const n = 3*storage.BlockSize + 5
	var cols []data.Column
	for _, name := range []string{"i", "f", "s", "inull", "mixed", "allnull"} {
		cols = append(cols, data.Column{Table: "g", Name: name, Kind: data.KindInt})
	}
	cols[1].Kind, cols[2].Kind = data.KindFloat, data.KindString
	tb := storage.NewTable("g", data.NewSchema(cols...))
	for i := 0; i < n; i++ {
		row := data.Tuple{
			data.Int(int64(i*7 - 300)),
			data.Float(float64(i) / 8),
			data.Str(strings.Repeat("x", i%5)),
			data.Int(int64(i % 13)),
			data.Int(int64(i)),
			data.Null(),
		}
		if i == 1 {
			row[1] = data.Float(math.Copysign(0, -1))
		}
		if i%5 == 0 {
			row[3] = data.Null()
		}
		switch i % 4 {
		case 1:
			row[4] = data.Str("m")
		case 2:
			row[4] = data.Float(0.5)
		case 3:
			row[4] = data.Null()
		}
		tb.MustAppend(row)
	}
	path := filepath.Join(t.TempDir(), "g.qpit")
	if err := WriteTable(path, tb); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != writeTableGolden {
		t.Fatalf("table file of %d bytes hashes to %s, want %s", len(b), got, writeTableGolden)
	}
}
