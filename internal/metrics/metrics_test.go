package metrics

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("Env", "TFLOPS")
	tb.Add("InfiniBand", "197")
	tb.Add("RoCE", "160")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Env") || !strings.Contains(lines[0], "TFLOPS") {
		t.Fatalf("header = %q", lines[0])
	}
	// All data rows align columns at the same offset.
	off := strings.Index(lines[2], "197")
	if strings.Index(lines[3], "160") != off {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}

func TestTableShortRowPads(t *testing.T) {
	tb := New("A", "B", "C")
	tb.Add("x")
	if len(tb.Rows[0]) != 3 {
		t.Fatal("short row not padded")
	}
}

func TestTableLongRowPanics(t *testing.T) {
	tb := New("A")
	defer func() {
		if recover() == nil {
			t.Fatal("long row did not panic")
		}
	}()
	tb.Add("x", "y")
}

func TestCSV(t *testing.T) {
	tb := New("a", "b")
	tb.AddF(1.5, "x")
	got := tb.CSV()
	want := "a,b\n1.50,x\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloatRanges(t *testing.T) {
	cases := map[float64]string{
		3.14159: "3.14",
		123.456: "123.5",
		12345.6: "12346",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestPctString(t *testing.T) {
	if got := PctString(93, 100); got != "-7.0%" {
		t.Fatalf("PctString = %q", got)
	}
	if got := PctString(1, 0); got != "n/a" {
		t.Fatalf("PctString(., 0) = %q", got)
	}
}
