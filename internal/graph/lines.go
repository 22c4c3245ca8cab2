package graph

import (
	"bufio"
	"io"
	"unicode"
	"unicode/utf8"
)

// maxLine is the longest line either text format accepts; a longer one
// fails with bufio.ErrTooLong.
const maxLine = 1 << 20

// maxFields is how many fields of a line the tokenizer keeps: the t/v/e
// records read at most four, the edge list two. Fields past it are
// counted, not kept.
const maxFields = 4

// lineScanner splits the text formats into records without allocating
// per line. The scanner's buffer grows on demand up to maxLine, so a
// 500-byte query does not pay for a 1 MiB one. The line and its fields
// are sub-slices of the scanner's buffer, valid until the next call to
// next; callers build strings from them only to report an error.
//
// White space is what strings.TrimSpace and strings.Fields take it to
// be (unicode.IsSpace; an invalid UTF-8 byte is not space), so a line
// splits exactly as it did when it was trimmed and split as a string.
type lineScanner struct {
	sc     *bufio.Scanner
	no     int               // number of the current line, from 1
	line   []byte            // the current line without surrounding white space
	n      int               // number of fields on the current line
	fields [maxFields][]byte // its first min(n, maxFields) fields
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return &lineScanner{sc: sc}
}

// next advances to the next line that is neither blank nor a comment
// (first field starting with '#' or '%'). It reports false at the end of
// the input or on a read error, which sc.Err returns.
func (s *lineScanner) next() bool {
	for s.sc.Scan() {
		s.no++
		if s.split(s.sc.Bytes()) {
			return true
		}
	}
	return false
}

// split tokenizes b and reports whether it holds a record.
func (s *lineScanner) split(b []byte) bool {
	s.n = 0
	first, start, end := -1, -1, 0
	for i := 0; i < len(b); {
		size, space := 1, false
		if c := b[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space && start < 0:
			if first < 0 {
				if b[i] == '#' || b[i] == '%' {
					return false
				}
				first = i
			}
			start = i
		case space && start >= 0:
			s.keep(b[start:i])
			start, end = -1, i
		}
		i += size
	}
	if start >= 0 {
		s.keep(b[start:])
		end = len(b)
	}
	if first < 0 {
		return false
	}
	s.line = b[first:end]
	return true
}

// keep records one field.
func (s *lineScanner) keep(f []byte) {
	if s.n < maxFields {
		s.fields[s.n] = f
	}
	s.n++
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
