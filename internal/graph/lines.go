package graph

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/bits"
	"sync"
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

// maxExactDigits is the longest run of decimal digits whose value always
// fits in a uint64.
const maxExactDigits = 19

// lineScanner splits the text formats into records without allocating
// per line. The scanner's buffer grows on demand up to maxLine, so a
// 500-byte query does not pay for a 1 MiB one. The line and its fields
// are sub-slices of the scanner's buffer, valid until the next call to
// next; callers build strings from them only to report an error.
//
// The scanner hands over every complete line its buffer holds at once
// (scanLines), and next cuts them apart as bufio.ScanLines would, so
// the buffer fills, grows and fails (bufio.ErrTooLong) exactly as it
// would line by line, without a scanner call per line.
//
// White space is what strings.TrimSpace and strings.Fields take it to
// be (unicode.IsSpace; an invalid UTF-8 byte is not space), so a line
// splits exactly as it did when it was trimmed and split as a string.
//
// The numbers are read in the same pass: a field of at most
// maxExactDigits digits and nothing else carries its value, and uintField
// and intField read that value, so the common field's bytes are looked at
// once. Any other field (a sign, a longer run of leading zeros, a
// non-digit) is read from its bytes by parseUint and atoi. A field is
// kept as its bounds in the line, so splitting a line stores no
// pointer but the line's.
type lineScanner struct {
	sc          *bufio.Scanner
	lines       []byte            // the lines of the scanner's last token not yet read
	no          int               // number of the current line, from 1
	buf         []byte            // the current line
	first, last int               // the record: buf[first:last], the line without surrounding white space
	n           int               // number of fields on the current line
	bounds      [maxFields][2]int // where its first min(n, maxFields) fields start and end in buf
	value       [maxFields]uint64 // a field's value, or noValue

	firstBuf *[scanBufSize]byte // the scanner's pooled first buffer
}

// noValue is the value of a field that is not 1..maxExactDigits digits.
const noValue = math.MaxUint64

// line returns the current record.
func (s *lineScanner) line() []byte { return s.buf[s.first:s.last] }

// field returns field k of the current record, k < min(n, maxFields).
func (s *lineScanner) field(k int) []byte { return s.buf[s.bounds[k][0]:s.bounds[k][1]] }

// scanBufSize is the scanner's first buffer, bufio's own start size.
const scanBufSize = 4096

// scanBufs holds the scanners' first buffers between parses. A parse
// reads no byte of it after it returns (the graph and every error text
// are copies), and a scanner that grows allocates its larger buffer
// itself, as from nil, so a pooled buffer only ever has scanBufSize
// bytes.
var scanBufs = sync.Pool{New: func() any { return new([scanBufSize]byte) }}

// newLineScanner returns a scanner over r whose first buffer comes from
// scanBufs; release returns it.
func newLineScanner(r io.Reader) *lineScanner {
	first := scanBufs.Get().(*[scanBufSize]byte)
	sc := bufio.NewScanner(r)
	sc.Buffer(first[:0], maxLine)
	sc.Split(scanLines)
	return &lineScanner{sc: sc, firstBuf: first}
}

// release hands the scanner's first buffer back; the scanner is not
// used again.
func (s *lineScanner) release() {
	scanBufs.Put(s.firstBuf)
	s.firstBuf = nil
}

// scanLines is the scanner's split function: every complete line the
// buffer holds, newlines included, as one token, and at the end of the
// input what is left, when anything is. It consumes the bytes that
// bufio.ScanLines would have before asking for more data, so the
// scanner reads, grows its buffer and reports ErrTooLong as it would.
func scanLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// next advances to the next line that is neither blank nor a comment
// (first field starting with '#' or '%'). It reports false at the end of
// the input or on a read error, which sc.Err returns. A line ends at a
// newline or at the end of the input, and one carriage return before
// its end is dropped, as bufio.ScanLines has it.
func (s *lineScanner) next() bool {
	for {
		for len(s.lines) > 0 {
			line := s.lines
			if i := bytes.IndexByte(line, '\n'); i >= 0 {
				line, s.lines = line[:i], line[i+1:]
			} else {
				s.lines = nil
			}
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			s.no++
			if s.split(line) {
				return true
			}
		}
		if !s.sc.Scan() {
			return false
		}
		s.lines = s.sc.Bytes()
	}
}

// The byte classes of the tokenizer: a byte at or above utf8.RuneSelf
// starts a rune whose decode decides whether it is white space.
const (
	classOther = iota // a byte of a field that is not a digit
	classDigit
	classSpace // unicode.IsSpace below utf8.RuneSelf
	classRune
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = classRune
		case c >= '0' && c <= '9':
			t[c] = classDigit
		case c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' || c == ' ':
			t[c] = classSpace
		}
	}
	return t
}()

// runeSpace reports whether the rune starting at b[i] is white space,
// and its width.
func runeSpace(b []byte, i int) (bool, int) {
	r, size := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), size
}

// split tokenizes b and reports whether it holds a record: one loop over
// the line, which skips the white space before a field and then reads
// the field, and its value with it while it is all digits. Only a byte
// at or above utf8.RuneSelf costs a rune decode.
func (s *lineScanner) split(b []byte) bool {
	n, first, last := 0, 0, 0
	for i := 0; i < len(b); {
		switch byteClass[b[i]] {
		case classSpace:
			i++
			continue
		case classRune:
			if space, size := runeSpace(b, i); space {
				i += size
				continue
			}
		}
		if n == 0 {
			if b[i] == '#' || b[i] == '%' {
				return false
			}
			first = i
		}
		start, value := i, uint64(0)
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			value = value*10 + uint64(d)
		}
		if i == start || i-start > maxExactDigits {
			value = noValue
		}
	rest: // the field goes on past its leading digits
		for i < len(b) {
			switch byteClass[b[i]] {
			case classSpace:
				break rest
			case classRune:
				space, size := runeSpace(b, i)
				if space {
					break rest
				}
				i += size - 1
			}
			value = noValue
			i++
		}
		if n < maxFields {
			s.bounds[n] = [2]int{start, i}
			s.value[n] = value
		}
		n++
		last = i
	}
	if n == 0 {
		return false
	}
	s.buf, s.first, s.last, s.n = b, first, last, n
	return true
}

// uintField is strconv.ParseUint of field k in base 10, with max in place of
// the bit size's largest value; it reports only whether the field is
// such a number, which is all the parsers ask of strconv's error.
func (s *lineScanner) uintField(k int, max uint64) (uint64, bool) {
	if v := s.value[k]; v < max { // noValue never is
		return v, true
	}
	return parseUint(s.field(k), max) // no value, or one of max or more
}

// intField is strconv.Atoi of field k; it reports only whether the field is
// such a number.
func (s *lineScanner) intField(k int) (int, bool) {
	if v := s.value[k]; v <= math.MaxInt {
		return int(v), true
	}
	return atoi(s.field(k))
}

// parseUint is strconv.ParseUint(string(b), 10, 64) with max in place of
// the bit size's largest value: at least one digit, no sign, nothing
// but digits, and a value of at most max.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		hi, lo := bits.Mul64(n, 10)
		lo, carry := bits.Add64(lo, d, 0)
		if d > 9 || hi|carry != 0 {
			return 0, false
		}
		n = lo
	}
	return n, n <= max
}

// atoi is strconv.Atoi(string(b)): an optional sign, then parseUint's
// digits, within the range of int.
func atoi(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	u, ok := parseUint(b, limit)
	if neg {
		return int(-u), ok
	}
	return int(u), ok
}
