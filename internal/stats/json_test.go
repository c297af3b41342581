package stats

import (
	"encoding/json"
	"testing"
)

// jsonStrings are strings whose quoting takes every branch of
// encoding/json's: HTML-escaped and quoted bytes, control bytes with and
// without a short escape, DEL, non-ASCII, invalid UTF-8 and the two line
// separators JSON allows and JavaScript does not.
var jsonStrings = []string{
	"", "grid 2x3", "layers 4", `mixed(grid 2x2; "layers" 4)`, `<>&"\`, "a\\b",
	"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f", "\x7f", "·", "héllo", "\xff\xfe", "ok\xc3",
	"\u2028\u2029", "line\u2028sep", "emoji \U0001F600", "\xed\xa0\x80", "~}|{",
}

// TestAppendJSONMatchesMarshal: a Stats with every leaf field, found by
// reflection, set to its own value (distinct) appends to exactly json.Marshal's bytes
// — so a field added to Stats fails here until AppendJSON writes it — with
// every kind of string as the topology, at the int64 extremes, and zero.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	var full Stats
	distinct(&full)
	cases := []Stats{{}, full}
	for _, s := range jsonStrings {
		c := full
		c.Topology = s
		cases = append(cases, c)
	}
	ext := full
	ext.Timing.PackNs, ext.Timing.SendNs, ext.Transport.DupFrames = 1<<63-1, -1<<63, -1
	cases = append(cases, ext)
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := s.AppendJSON([]byte("prefix"))
		if string(got[:6]) != "prefix" || string(got[6:]) != string(want) {
			t.Fatalf("AppendJSON of topology %q:\n got %s\nwant %s", s.Topology, got[6:], want)
		}
	}
}

// TestAppendJSONString: strings quote as json.Marshal quotes them, appended
// after what the buffer holds.
func TestAppendJSONString(t *testing.T) {
	for _, s := range jsonStrings {
		want, _ := json.Marshal(s)
		if got := AppendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendJSONString(%q) = %s, want x%s", s, got, want)
		}
	}
}
