package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// The dataset file is one JSON object:
//
//	{"people":[{"name":"ana","community":0},…],
//	 "edges":[{"a":0,"b":1,"dist":17},…],
//	 "horizonSlots":96,"days":2,
//	 "free":[[[14,20],[22,30]],null,…],
//	 "policies":{"3":1,…},
//	 "locations":{"0":[1203.5,-8.25],…}}
//
// people[v] is person v (an empty name is left out); edges lists each
// friendship once, a < b; free[v] lists person v's free slot runs
// [start, end), null when there are none. policies maps a person to a
// sharing policy and locations to (x, y) meters on the flat local plane;
// both are left out when empty, and a person absent from them has the
// default policy and no known location (files written before locations
// existed have none).
//
// Save writes exactly the bytes encoding/json writes for that schema (a
// struct per object, maps with int keys, the key order above) plus a
// newline, and Load decodes what encoding/json would, with one refusal
// of its own: a top-level key that appears twice (encoding/json merges
// the two values). The codec tests hold both against encoding/json.

// Save writes the dataset in the file format above.
func (d *Dataset) Save(w io.Writer) error {
	// encoding/json refuses NaN and ±Inf; refuse them before anything is
	// written, as its Encoder did. Graph distances are finite already.
	for v, xy := range d.Locations {
		if !finite(xy[0]) || !finite(xy[1]) {
			return fmt.Errorf("dataset: location of person %d is not finite: %v", v, xy)
		}
	}
	e := &encoder{w: w, b: make([]byte, 0, 64<<10)}
	n := d.Graph.NumVertices()
	e.b = append(e.b, `{"people":[`...)
	for v := 0; v < n; v++ {
		if v > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, '{')
		if name := d.Graph.Label(v); name != "" {
			e.b = append(e.b, `"name":`...)
			e.b = appendQuoted(e.b, name)
			e.b = append(e.b, ',')
		}
		comm := 0
		if v < len(d.Community) {
			comm = d.Community[v]
		}
		e.b = append(e.b, `"community":`...)
		e.b = strconv.AppendInt(e.b, int64(comm), 10)
		e.b = append(e.b, '}')
		e.flushFull()
	}
	e.b = append(e.b, `],"edges":`...)
	edges := 0
	for u := 0; u < n; u++ {
		d.Graph.Neighbors(u, func(v int, dist float64) {
			if u >= v {
				return
			}
			if edges == 0 {
				e.b = append(e.b, '[')
			} else {
				e.b = append(e.b, ',')
			}
			edges++
			e.b = append(e.b, `{"a":`...)
			e.b = strconv.AppendInt(e.b, int64(u), 10)
			e.b = append(e.b, `,"b":`...)
			e.b = strconv.AppendInt(e.b, int64(v), 10)
			e.b = append(e.b, `,"dist":`...)
			e.b = appendFloat(e.b, dist)
			e.b = append(e.b, '}')
		})
		e.flushFull()
	}
	if edges == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, ']')
	}
	h := d.Cal.Horizon()
	e.b = append(e.b, `,"horizonSlots":`...)
	e.b = strconv.AppendInt(e.b, int64(h), 10)
	e.b = append(e.b, `,"days":`...)
	e.b = strconv.AppendInt(e.b, int64(d.Days), 10)
	e.b = append(e.b, `,"free":[`...)
	for v := 0; v < n; v++ {
		if v > 0 {
			e.b = append(e.b, ',')
		}
		row := d.Cal.Row(v)
		s := row.NextSet(0)
		if s == -1 {
			e.b = append(e.b, "null"...)
			continue
		}
		e.b = append(e.b, '[')
		for first := true; s != -1; first = false {
			end := s + 1
			for end < h && row.Contains(end) {
				end++
			}
			if !first {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '[')
			e.b = strconv.AppendInt(e.b, int64(s), 10)
			e.b = append(e.b, ',')
			e.b = strconv.AppendInt(e.b, int64(end), 10)
			e.b = append(e.b, ']')
			s = row.NextSet(end)
		}
		e.b = append(e.b, ']')
		e.flushFull()
	}
	e.b = append(e.b, ']')
	if len(d.Policies) > 0 {
		e.b = append(e.b, `,"policies":{`...)
		for i, k := range decimalOrder(d.Policies) {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(append(append(e.b, '"'), k.s...), '"', ':')
			e.b = strconv.AppendInt(e.b, int64(d.Policies[k.v]), 10)
		}
		e.b = append(e.b, '}')
	}
	if len(d.Locations) > 0 {
		e.b = append(e.b, `,"locations":{`...)
		for i, k := range decimalOrder(d.Locations) {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(append(append(e.b, '"'), k.s...), '"', ':')
			xy := d.Locations[k.v]
			e.b = append(e.b, '[')
			e.b = appendFloat(e.b, xy[0])
			e.b = append(e.b, ',')
			e.b = appendFloat(e.b, xy[1])
			e.b = append(e.b, ']')
			e.flushFull()
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "}\n"...)
	e.flush()
	return e.err
}

// encoder buffers Save's output and writes it in large chunks.
type encoder struct {
	w   io.Writer
	b   []byte
	err error // the first write error; later writes are dropped
}

func (e *encoder) flushFull() {
	if len(e.b) >= cap(e.b)/2 {
		e.flush()
	}
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat formats f as encoding/json does: like strconv's shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with a
// one-digit negative exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decimalKey is a map key with its decimal string.
type decimalKey struct {
	s string
	v int
}

// decimalOrder returns m's keys in the order encoding/json writes a map
// with int keys: sorted by their decimal strings ("10" before "9").
func decimalOrder[V any](m map[int]V) []decimalKey {
	keys := make([]decimalKey, 0, len(m))
	for v := range m {
		keys = append(keys, decimalKey{strconv.Itoa(v), v})
	}
	slices.SortFunc(keys, func(a, b decimalKey) int { return strings.Compare(a.s, b.s) })
	return keys
}

// appendQuoted appends s as a JSON string the way encoding/json writes
// it: <, >, & and U+2028/U+2029 escaped as \u00XX and \u202X, control
// characters as their short escapes or \u00XX, and each byte of invalid
// UTF-8 as \ufffd.
func appendQuoted(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Load reads a dataset written by Save. It reads r once, through one
// buffer, and refuses what the file format cannot describe: a syntax
// error, a value of the wrong type, a negative horizon, a duplicate
// name, an edge the graph refuses, a free run outside the horizon, and
// availability, a policy or a location for someone who is not in people.
func Load(r io.Reader) (*Dataset, error) {
	f, err := decode(r, 64<<10)
	if err != nil {
		return nil, err
	}
	return f.build()
}

// decode reads the file from r through a buffer of bufSize bytes.
func decode(r io.Reader, bufSize int) (*file, error) {
	s := &reader{r: r, buf: make([]byte, 0, bufSize)}
	var f file
	if err := s.file(&f); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return &f, nil
}

// file is a decoded dataset file before the checks that need the whole
// of it. People go into the graph as they are read, and so do edges read
// after them; edges read before people wait in edges.
type file struct {
	g         *socialgraph.Graph
	community []int
	edges     []fileEdge
	horizon   int
	days      int
	// runs holds every free run; free[v] is the end of person v's runs
	// in it (their start is free[v-1], or 0).
	runs      [][2]int
	free      []int
	policies  map[int]int
	locations map[int][2]float64
}

type fileEdge struct {
	a, b int
	dist float64
}

// build validates f and makes it a Dataset.
func (f *file) build() (*Dataset, error) {
	if f.horizon < 0 {
		return nil, fmt.Errorf("dataset: negative horizon %d", f.horizon)
	}
	if f.g == nil {
		f.g = socialgraph.New()
	}
	g := f.g
	n := g.NumVertices()
	for _, e := range f.edges {
		if err := addEdge(g, e); err != nil {
			return nil, err
		}
	}
	cal := schedule.NewCalendar(n, f.horizon)
	start := 0
	for v, end := range f.free {
		if v >= n {
			return nil, fmt.Errorf("dataset: availability for unknown person %d", v)
		}
		for _, run := range f.runs[start:end] {
			if run[0] < 0 || run[1] > f.horizon || run[0] > run[1] {
				return nil, fmt.Errorf("dataset: person %d has bad free run %v", v, run)
			}
			cal.SetRange(v, run[0], run[1], true)
		}
		start = end
	}
	for v := range f.policies {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("dataset: policy for unknown person %d", v)
		}
	}
	for v := range f.locations {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("dataset: location for unknown person %d", v)
		}
	}
	days := f.days
	if days == 0 && schedule.SlotsPerDay > 0 {
		days = (f.horizon + schedule.SlotsPerDay - 1) / schedule.SlotsPerDay
	}
	community := f.community
	if community == nil {
		community = []int{}
	}
	return &Dataset{Graph: g, Cal: cal, Community: community, Days: days, Policies: f.policies, Locations: f.locations}, nil
}

func addEdge(g *socialgraph.Graph, e fileEdge) error {
	if err := g.AddEdge(e.a, e.b, e.dist); err != nil {
		return fmt.Errorf("dataset: edge (%d,%d): %w", e.a, e.b, err)
	}
	return nil
}

// maxDepth is encoding/json's nesting limit: at most this many arrays
// and objects open at once.
const maxDepth = 10000

// reader decodes the dataset file in one pass over r. Keys match their
// field case-insensitively, as encoding/json matches them; unknown keys
// are skipped; null leaves a value as it was; a run or location array
// shorter than two reads the rest as zero and a longer one drops the
// rest; and nothing after the top-level object is read.
type reader struct {
	r    io.Reader
	buf  []byte
	pos  int
	off  int64 // bytes of r before buf
	err  error // the first read error (io.EOF at the end of r)
	tok  []byte
	fold []byte // a key as encoding/json folds it
}

// fill reads the next chunk of r into buf; false means r has no more.
func (s *reader) fill() bool {
	for s.err == nil {
		s.off += int64(len(s.buf))
		n, err := s.r.Read(s.buf[:cap(s.buf)])
		s.buf, s.pos, s.err = s.buf[:n], 0, err
		if n > 0 {
			return true
		}
	}
	return false
}

// fail returns a syntax error at the current byte, or the read error
// that ended the input early.
func (s *reader) fail(what string) error {
	if s.pos == len(s.buf) && s.err != nil {
		if s.err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return s.err
	}
	return fmt.Errorf("%s at byte %d", what, s.off+int64(s.pos))
}

// peek returns the next byte without consuming it.
func (s *reader) peek() (byte, bool) {
	if s.pos == len(s.buf) && !s.fill() {
		return 0, false
	}
	return s.buf[s.pos], true
}

// nonSpace skips JSON whitespace and returns the next byte, unconsumed.
func (s *reader) nonSpace() (byte, bool) {
	for {
		for s.pos < len(s.buf) {
			switch c := s.buf[s.pos]; c {
			case ' ', '\t', '\n', '\r':
				s.pos++
			default:
				return c, true
			}
		}
		if !s.fill() {
			return 0, false
		}
	}
}

// take appends the next byte to tok and consumes it.
func (s *reader) take() {
	s.tok = append(s.tok, s.buf[s.pos])
	s.pos++
}

// literal consumes word (true, false or null), whose first byte was
// peeked.
func (s *reader) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if c, ok := s.peek(); !ok || c != word[i] {
			return s.fail("invalid literal")
		}
		s.pos++
	}
	return nil
}

// open consumes the opening byte of an array or object — or a null, in
// which case null is true and there is nothing to read.
func (s *reader) open(c byte, depth int) (null bool, err error) {
	got, ok := s.nonSpace()
	switch {
	case ok && got == c:
		if depth > maxDepth {
			return false, s.fail("exceeded max depth")
		}
		s.pos++
		return false, nil
	case ok && got == 'n':
		return true, s.literal("null")
	}
	return false, s.fail(fmt.Sprintf("expected %q", c))
}

// more follows an opening byte (first) or an element: it consumes a
// comma or the closing byte and reports whether an element follows.
func (s *reader) more(close byte, first bool) (bool, error) {
	c, ok := s.nonSpace()
	switch {
	case !ok:
		return false, s.fail("")
	case c == close:
		s.pos++
		return false, nil
	case first:
		return true, nil
	case c != ',':
		return false, s.fail(fmt.Sprintf("expected ',' or %q", close))
	}
	s.pos++
	return true, nil
}

// key reads an object key and its colon and returns the key's value,
// valid until the next token.
func (s *reader) key() ([]byte, error) {
	if c, ok := s.nonSpace(); !ok || c != '"' {
		return nil, s.fail("expected a key")
	}
	raw, plain, err := s.str()
	if err != nil {
		return nil, err
	}
	if !plain {
		v, err := unquote(s.tok)
		if err != nil {
			return nil, err
		}
		raw = []byte(v)
	}
	if c, ok := s.nonSpace(); !ok || c != ':' {
		return nil, s.fail("expected ':'")
	}
	s.pos++
	return raw, nil
}

// field returns the index in names of the field key selects: an exact
// match, else a match under encoding/json's case folding, else -1.
// names are ASCII.
func (s *reader) field(key []byte, names ...string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	s.fold = s.fold[:0]
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			s.fold = append(s.fold, upper(c))
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		s.fold = utf8.AppendRune(s.fold, foldRune(r))
		i += n
	}
	for i, name := range names {
		if strings.EqualFold(string(s.fold), name) {
			return i
		}
	}
	return -1
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldRune returns the smallest rune of r's case-folding orbit, which is
// how encoding/json folds a key (the Kelvin sign matches "k").
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// str reads a string whose opening quote was peeked, leaving it quoted in
// tok. raw is its content as written; plain reports that raw is also its
// value (no escapes, valid UTF-8).
func (s *reader) str() (raw []byte, plain bool, err error) {
	s.pos++
	s.tok = append(s.tok[:0], '"')
	plain = true
	high := false
	for {
		i := s.pos
		for i < len(s.buf) {
			if c := s.buf[i]; c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
				break
			}
			i++
		}
		s.tok = append(s.tok, s.buf[s.pos:i]...)
		s.pos = i
		c, ok := s.peek()
		switch {
		case !ok || c < 0x20:
			return nil, false, s.fail("invalid character in string")
		case c == '"':
			s.take()
			raw = s.tok[1 : len(s.tok)-1]
			if high && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c >= utf8.RuneSelf:
			high = true
			s.take()
		case c == '\\':
			plain = false
			s.take()
			e, ok := s.peek()
			if !ok {
				return nil, false, s.fail("")
			}
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.take()
			case 'u':
				s.take()
				for range 4 {
					h, ok := s.peek()
					if !ok || !isHex(h) {
						return nil, false, s.fail("invalid \\u escape")
					}
					s.take()
				}
			default:
				return nil, false, s.fail("invalid escape")
			}
		}
	}
}

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// unquote decodes a quoted string with escapes or invalid UTF-8 as
// encoding/json does (a lone surrogate or a bad byte becomes U+FFFD).
func unquote(quoted []byte) (string, error) {
	var v string
	err := json.Unmarshal(quoted, &v)
	return v, err
}

// number reads a number whose first byte was peeked, checking JSON's
// grammar, and returns its text (valid until the next token) and whether
// it is an integer literal (no fraction or exponent).
func (s *reader) number() (tok []byte, isInt bool, err error) {
	// A number that ends inside buf is read where it lies. Taking every
	// byte that can occur in a number and then checking the grammar
	// accepts what reading byte by byte would: a number is never followed
	// directly by one of those bytes.
	i := s.pos
	for i < len(s.buf) && isNumberByte(s.buf[i]) {
		i++
	}
	if i < len(s.buf) {
		tok = s.buf[s.pos:i]
		s.pos = i
		if isInt, ok := numberGrammar(tok); ok {
			return tok, isInt, nil
		}
		return nil, false, s.fail("invalid number")
	}
	s.tok = s.tok[:0]
	for {
		c, ok := s.peek()
		if !ok || !isNumberByte(c) {
			break
		}
		s.take()
	}
	if isInt, ok := numberGrammar(s.tok); ok {
		return s.tok, isInt, nil
	}
	return nil, false, s.fail("invalid number")
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// numberGrammar reports whether b is a JSON number, and whether it is an
// integer literal.
func numberGrammar(b []byte) (isInt, ok bool) {
	digits := func() int {
		n := 0
		for n < len(b) && '0' <= b[n] && b[n] <= '9' {
			n++
		}
		b = b[n:]
		return n
	}
	if len(b) > 0 && b[0] == '-' {
		b = b[1:]
	}
	switch {
	case len(b) == 0 || b[0] < '0' || b[0] > '9':
		return false, false
	case b[0] == '0':
		b = b[1:]
	default:
		digits()
	}
	isInt = true
	if len(b) > 0 && b[0] == '.' {
		b = b[1:]
		isInt = false
		if digits() == 0 {
			return false, false
		}
	}
	if len(b) > 0 && (b[0] == 'e' || b[0] == 'E') {
		b = b[1:]
		isInt = false
		if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
			b = b[1:]
		}
		if digits() == 0 {
			return false, false
		}
	}
	return isInt, len(b) == 0
}

var errRange = errors.New("number out of range")

// parseInt parses an integer literal of tok; it cannot hold more than 19
// digits after the sign.
func parseInt(tok []byte) (int, error) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 19 {
		return 0, errRange
	}
	var u uint64
	for _, c := range tok {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return int(-u), nil // wraps to MinInt64 at 1<<63
	case !neg && u < 1<<63:
		return int(u), nil
	}
	return 0, errRange
}

// intInto reads an integer into *p; null leaves *p as it was.
func (s *reader) intInto(p *int) error {
	c, ok := s.nonSpace()
	switch {
	case ok && c == 'n':
		return s.literal("null")
	case !ok || c != '-' && (c < '0' || c > '9'):
		return s.fail("expected an integer")
	}
	tok, isInt, err := s.number()
	if err != nil {
		return err
	}
	if !isInt {
		return fmt.Errorf("number %s is not an integer", tok)
	}
	v, err := parseInt(tok)
	if err != nil {
		return fmt.Errorf("number %s: %w", tok, err)
	}
	*p = v
	return nil
}

// floatInto reads a number into *p; null leaves *p as it was.
func (s *reader) floatInto(p *float64) error {
	c, ok := s.nonSpace()
	switch {
	case ok && c == 'n':
		return s.literal("null")
	case !ok || c != '-' && (c < '0' || c > '9'):
		return s.fail("expected a number")
	}
	tok, isInt, err := s.number()
	if err != nil {
		return err
	}
	if isInt && tok[0] != '-' && len(tok) <= 15 {
		v, _ := parseInt(tok) // at most 15 digits: exact as a float64
		*p = float64(v)
		return nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("number %s: %w", tok, errRange)
	}
	*p = v
	return nil
}

// stringInto reads a string into *p; null leaves *p as it was.
func (s *reader) stringInto(p *string) error {
	c, ok := s.nonSpace()
	switch {
	case ok && c == 'n':
		return s.literal("null")
	case !ok || c != '"':
		return s.fail("expected a string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return err
	}
	if !plain {
		v, err := unquote(s.tok)
		*p = v
		return err
	}
	*p = string(raw)
	return nil
}

// skip reads and drops one value of any type; depth counts the arrays
// and objects open around it.
func (s *reader) skip(depth int) error {
	c, ok := s.nonSpace()
	if !ok {
		return s.fail("")
	}
	switch {
	case c == '{' || c == '[':
		_, err := s.each(c, depth+1, func([]byte) error { return s.skip(depth + 1) })
		return err
	case c == '"':
		_, _, err := s.str()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := s.number()
		return err
	}
	return s.fail("invalid character")
}

// each calls elem for every element of the array (or object, with its
// key) that opens at the next byte, at depth containers deep; a null
// calls nothing and reports null.
func (s *reader) each(open byte, depth int, elem func(key []byte) error) (null bool, err error) {
	if null, err = s.open(open, depth); null || err != nil {
		return null, err
	}
	closer := byte(']')
	if open == '{' {
		closer = '}'
	}
	for more, err := s.more(closer, true); more || err != nil; more, err = s.more(closer, false) {
		if err != nil {
			return false, err
		}
		var key []byte
		if open == '{' {
			if key, err = s.key(); err != nil {
				return false, err
			}
		}
		if err := elem(key); err != nil {
			return false, err
		}
	}
	return false, nil
}

// file decodes the top-level value into f.
func (s *reader) file(f *file) error {
	c, ok := s.nonSpace()
	if ok && c == 'n' {
		return s.literal("null")
	}
	var seen [7]bool
	_, err := s.each('{', 1, func(key []byte) error {
		i := s.field(key, "people", "edges", "horizonSlots", "days", "free", "policies", "locations")
		if i >= 0 {
			if seen[i] {
				return fmt.Errorf("key %q appears twice", key)
			}
			seen[i] = true
		}
		switch i {
		case 0:
			return s.people(f)
		case 1:
			return s.edges(f)
		case 2:
			return s.intInto(&f.horizon)
		case 3:
			return s.intInto(&f.days)
		case 4:
			return s.free(f)
		case 5:
			return s.policies(f)
		case 6:
			return s.locations(f)
		}
		return s.skip(1)
	})
	return err
}

func (s *reader) people(f *file) error {
	f.g = socialgraph.New()
	_, err := s.each('[', 2, func([]byte) error {
		var name string
		var comm int
		_, err := s.each('{', 3, func(key []byte) error {
			switch s.field(key, "name", "community") {
			case 0:
				return s.stringInto(&name)
			case 1:
				return s.intInto(&comm)
			}
			return s.skip(3)
		})
		if err != nil {
			return err
		}
		if _, err := f.g.AddVertex(name); err != nil {
			return fmt.Errorf("dataset: person %d: %w", len(f.community), err)
		}
		f.community = append(f.community, comm)
		return nil
	})
	return err
}

func (s *reader) edges(f *file) error {
	_, err := s.each('[', 2, func([]byte) error {
		var e fileEdge
		_, err := s.each('{', 3, func(key []byte) error {
			switch s.field(key, "a", "b", "dist") {
			case 0:
				return s.intInto(&e.a)
			case 1:
				return s.intInto(&e.b)
			case 2:
				return s.floatInto(&e.dist)
			}
			return s.skip(3)
		})
		switch {
		case err != nil:
			return err
		case f.g != nil:
			return addEdge(f.g, e)
		}
		f.edges = append(f.edges, e)
		return nil
	})
	return err
}

func (s *reader) free(f *file) error {
	_, err := s.each('[', 2, func([]byte) error {
		_, err := s.each('[', 3, func([]byte) error {
			var run [2]int
			i := 0
			_, err := s.each('[', 4, func([]byte) error {
				i++
				if i > len(run) {
					return s.skip(4)
				}
				return s.intInto(&run[i-1])
			})
			f.runs = append(f.runs, run)
			return err
		})
		f.free = append(f.free, len(f.runs))
		return err
	})
	return err
}

// personKey parses a policies or locations key as encoding/json parses
// an int map key.
func personKey(key []byte) (int, error) {
	v, err := strconv.ParseInt(string(key), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("key %q is not a person id", key)
	}
	return int(v), nil
}

func (s *reader) policies(f *file) error {
	null, err := s.each('{', 2, func(key []byte) error {
		v, err := personKey(key)
		if err != nil {
			return err
		}
		pol := 0
		if err := s.intInto(&pol); err != nil {
			return err
		}
		if f.policies == nil {
			f.policies = make(map[int]int)
		}
		f.policies[v] = pol
		return nil
	})
	if err == nil && !null && f.policies == nil {
		f.policies = map[int]int{}
	}
	return err
}

func (s *reader) locations(f *file) error {
	null, err := s.each('{', 2, func(key []byte) error {
		v, err := personKey(key)
		if err != nil {
			return err
		}
		var xy [2]float64
		i := 0
		if _, err := s.each('[', 3, func([]byte) error {
			i++
			if i > len(xy) {
				return s.skip(3)
			}
			return s.floatInto(&xy[i-1])
		}); err != nil {
			return err
		}
		if f.locations == nil {
			f.locations = make(map[int][2]float64)
		}
		f.locations[v] = xy
		return nil
	})
	if err == nil && !null && f.locations == nil {
		f.locations = map[int][2]float64{}
	}
	return err
}
