package platform

// Schema-specific JSON for the write routes.  POST /v1/batch, /v1/workers
// and /v1/tasks read their body once (readBody) and decode it in a single
// recursive-descent pass written for exactly the Event, market.Worker and
// market.Task schema: no reflection, no separate validity scan, no maps.
//
// The decoder accepts exactly what encoding/json's Decoder (followed by a
// check that nothing but whitespace trails the value) accepts, and yields
// the same values, quirks included:
//
//   - keys match case-insensitively under encoding/json's Unicode fold
//     ("ſeq" sets Seq); an exact match is tried first;
//   - a repeated key decodes into what the first one left: the same
//     *market.Worker, and the same slice backing array, so a null element
//     keeps the value already stored at its index;
//   - null clears pointers and slices and leaves numbers and strings
//     untouched; [] is an empty non-nil slice;
//   - unknown keys are skipped, but their values must be valid JSON
//     (nesting deeper than 10000 is not);
//   - strings are unquoted with invalid UTF-8 and lone surrogates turned
//     into U+FFFD;
//   - numbers go through strconv.ParseInt/ParseUint/ParseFloat on the
//     token bytes, so every value is bit-identical, and a token the field
//     cannot hold (1.0 into an int, -1 into a uint64, 1e400 into a float)
//     is an error;
//   - any syntax or type error anywhere rejects the whole body.
//
// eventjson_test.go holds encoding/json as the oracle: a table of these
// quirks and a differential fuzz target (FuzzDecodeBatch).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/market"
)

// maxJSONDepth is encoding/json's nesting limit: 10000 open arrays and
// objects are fine, 10001 are a syntax error.
const maxJSONDepth = 10000

// maxBodyPresize caps the buffer readBody allocates from a client's
// Content-Length before it has read a byte.
const maxBodyPresize = 8 << 20

// readBody reads a request body in one pass, capped at limit bytes (0 =
// uncapped) through http.MaxBytesReader, into a buffer sized from
// Content-Length.  A body over the cap fails with *http.MaxBytesError
// whatever its bytes would have parsed as.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	size := int64(bytes.MinRead)
	if r.ContentLength > 0 {
		size = r.ContentLength
	}
	if limit > 0 && size > limit {
		size = limit
	}
	size = min(size, maxBodyPresize)
	// One spare byte, so the read that reports EOF needs no regrowth.
	buf := make([]byte, 0, size+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeEventsJSON decodes a POST /v1/batch body.  A top-level null is a
// nil batch.
func decodeEventsJSON(data []byte) ([]Event, error) {
	d := jsonDecoder{data: data}
	var events []Event
	if err := d.events(&events); err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return events, nil
}

// decodeWorkerJSON decodes a POST /v1/workers body.
func decodeWorkerJSON(data []byte) (market.Worker, error) {
	return decodeObject(data, "worker", (*jsonDecoder).worker)
}

// decodeTaskJSON decodes a POST /v1/tasks body.
func decodeTaskJSON(data []byte) (market.Task, error) {
	return decodeObject(data, "task", (*jsonDecoder).task)
}

// decodeObject decodes a whole worker or task body.  A top-level null is
// the zero value, as it is for encoding/json.
func decodeObject[T any](data []byte, what string, object func(*jsonDecoder, *T) error) (T, error) {
	d := jsonDecoder{data: data}
	var v T
	p := &v // null only clears p
	if err := objectPtr(&d, &p, what, object); err != nil {
		return *new(T), err
	}
	if err := d.end(); err != nil {
		return *new(T), err
	}
	return v, nil
}

// fieldSet is one struct's JSON keys, in the order its decoder switches
// on, with their folded forms for encoding/json's case-insensitive match.
type fieldSet struct {
	names, folded []string
}

func newFieldSet(names ...string) fieldSet {
	fs := fieldSet{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(appendFoldedName(nil, []byte(n))))
	}
	return fs
}

var (
	eventFields  = newFieldSet("seq", "kind", "worker", "worker_id", "task", "task_id", "round", "epoch")
	workerFields = newFieldSet("id", "capacity", "accuracy", "interest", "specialties", "reservation_wage")
	taskFields   = newFieldSet("id", "category", "replication", "payment", "difficulty")
)

// index returns the field key names, or -1 for an unknown key.
func (fs *fieldSet) index(key []byte) int {
	for i, n := range fs.names {
		if string(key) == n {
			return i
		}
	}
	var buf [32]byte
	folded := appendFoldedName(buf[:0], key)
	for i, n := range fs.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// appendFoldedName appends in's fold key: two names match
// case-insensitively exactly when their fold keys are equal.  ASCII
// letters fold to upper case, every other rune to the smallest rune of
// its Unicode simple-fold orbit (so 'ſ' folds to 'S' and the Kelvin
// sign to 'K').
func appendFoldedName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// jsonDecoder is one pass over one body.
type jsonDecoder struct {
	data  []byte
	off   int
	depth int       // open arrays and objects
	key   []byte    // unquote scratch for escaped or non-ASCII strings
	flts  []float64 // element scratch for the profile slices
	ints  []int
}

// fail reports a syntax or type error at the current byte offset.
func (d *jsonDecoder) fail(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, d.off)...)
}

// syntax reports the byte at d.off as out of place.
func (d *jsonDecoder) syntax(context string) error {
	if d.off >= len(d.data) {
		return d.fail("unexpected end of JSON input")
	}
	return d.fail("invalid character %q %s", d.data[d.off], context)
}

// mismatch reports the value starting with c as the wrong type for what,
// or as a syntax error when c starts no value at all.
func (d *jsonDecoder) mismatch(c byte, what string) error {
	var got string
	switch c {
	case '{':
		got = "object"
	case '[':
		got = "array"
	case '"':
		got = "string"
	case 't', 'f':
		got = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return d.fail("cannot decode %s into %s", got, what)
}

// peek skips whitespace and returns the next byte; at the end of the
// input it is an error, because every caller needs one more token.
func (d *jsonDecoder) peek() (byte, error) {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, d.syntax("")
}

// end checks that only whitespace follows the top-level value: a proxy or
// client bug that concatenates bodies must not get its first one applied.
func (d *jsonDecoder) end() error {
	if _, err := d.peek(); err == nil {
		return d.fail("trailing data after JSON value")
	}
	return nil
}

// open consumes the '[' or '{' at d.off.
func (d *jsonDecoder) open() error {
	d.off++
	d.depth++
	if d.depth > maxJSONDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// next moves to item n of the array or object being read: it consumes
// the ',' before every item but the first, or the closing byte, and
// reports false at the close.
func (d *jsonDecoder) next(close byte, n int) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c == close {
		d.off++
		d.depth--
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			return false, d.syntax("after array element or object value")
		}
		d.off++
	}
	return true, nil
}

// member reads member n's key and the ':' after it; ok is false at the
// closing '}'.  The key aliases the input or d.key and is valid until the
// next string is read.
func (d *jsonDecoder) member(n int) (key []byte, ok bool, err error) {
	if ok, err = d.next('}', n); !ok {
		return nil, false, err
	}
	c, err := d.peek()
	if err != nil {
		return nil, false, err
	}
	if c != '"' {
		return nil, false, d.syntax("looking for beginning of object key string")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	if c, err = d.peek(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, d.syntax("after object key")
	}
	d.off++
	return key, true, nil
}

// str reads the string at d.off and returns its unquoted bytes, which
// alias the input when the string holds no escape and no non-ASCII byte,
// and d.key otherwise.
func (d *jsonDecoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	plain := true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			if plain {
				return data[start:i], nil
			}
			d.key = appendUnquoted(d.key[:0], data[start:i])
			return d.key, nil
		case c == '\\':
			plain = false
			d.off = i + 1
			if d.off >= len(data) {
				return nil, d.syntax("")
			}
			switch data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for d.off = i + 2; d.off < i+6; d.off++ {
					if d.off >= len(data) || unhex(data[d.off]) < 0 {
						return nil, d.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				return nil, d.syntax("in string escape code")
			}
		case c < ' ':
			d.off = i
			return nil, d.syntax("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.off = len(data)
	return nil, d.syntax("")
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

// appendUnquoted appends the value of a syntactically valid string body
// (the bytes between the quotes).  Invalid UTF-8 and unpaired surrogates
// become U+FFFD, one per bad byte or escape.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := u4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if pair := utf16.DecodeRune(rr, u4(s[r:])); pair != unicode.ReplacementChar {
						r += 6
						dst = utf8.AppendRune(dst, pair)
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// literal consumes word (true, false or null).
func (d *jsonDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) || d.data[d.off] != word[i] {
			return d.syntax("in literal " + word)
		}
		d.off++
	}
	return nil
}

// number consumes one number token and returns its bytes.
func (d *jsonDecoder) number() ([]byte, error) {
	data, start := d.data, d.off
	digits := func() bool {
		from := d.off
		for d.off < len(data) && '0' <= data[d.off] && data[d.off] <= '9' {
			d.off++
		}
		return d.off > from
	}
	if data[d.off] == '-' {
		d.off++
	}
	if d.off < len(data) && data[d.off] == '0' {
		d.off++
	} else if !digits() {
		return nil, d.syntax("in numeric literal")
	}
	if d.off < len(data) && data[d.off] == '.' {
		d.off++
		if !digits() {
			return nil, d.syntax("after decimal point in numeric literal")
		}
	}
	if d.off < len(data) && (data[d.off] == 'e' || data[d.off] == 'E') {
		d.off++
		if d.off < len(data) && (data[d.off] == '+' || data[d.off] == '-') {
			d.off++
		}
		if !digits() {
			return nil, d.syntax("in exponent of numeric literal")
		}
	}
	return data[start:d.off], nil
}

// scalar reads the value of a number field: the number's token, or nil
// for null (which leaves the field as it is).
func (d *jsonDecoder) scalar(what string) ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c == '-' || ('0' <= c && c <= '9') {
		return d.number()
	}
	if c == 'n' {
		return nil, d.literal("null")
	}
	return nil, d.mismatch(c, what)
}

func (d *jsonDecoder) parseInt(tok []byte, what string) (int, error) {
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, d.fail("cannot decode number %s into %s", tok, what)
	}
	return int(n), nil
}

func (d *jsonDecoder) parseUint(tok []byte, what string) (uint64, error) {
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return 0, d.fail("cannot decode number %s into %s", tok, what)
	}
	return n, nil
}

func (d *jsonDecoder) parseFloat(tok []byte, what string) (float64, error) {
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.fail("cannot decode number %s into %s", tok, what)
	}
	return f, nil
}

// numberField decodes a number field; null leaves *p as it is.
func numberField[T any](d *jsonDecoder, p *T, what string, parse func([]byte, string) (T, error)) error {
	tok, err := d.scalar(what)
	if tok == nil || err != nil {
		return err
	}
	*p, err = parse(tok, what)
	return err
}

// pointerField decodes a number into a pointer field: null clears *p, and
// a number is stored in the value *p already points to, or a new one.
func pointerField[T any](d *jsonDecoder, p **T, what string, parse func([]byte, string) (T, error)) error {
	tok, err := d.scalar(what)
	if err != nil {
		return err
	}
	if tok == nil {
		*p = nil
		return nil
	}
	v, err := parse(tok, what)
	if err != nil {
		return err
	}
	if *p == nil {
		*p = new(T)
	}
	**p = v
	return nil
}

// kindField decodes an event kind.  The known kinds come back as their
// constants, so the common case allocates nothing.
func (d *jsonDecoder) kindField(p *EventKind) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch(c, "kind")
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	for _, k := range eventKinds {
		if string(s) == string(k) {
			*p = k
			return nil
		}
	}
	*p = EventKind(s)
	return nil
}

var eventKinds = [...]EventKind{EventWorkerJoined, EventWorkerLeft, EventTaskPosted, EventTaskClosed, EventRoundClosed, EventEpochBumped}

// numbers decodes a JSON array of numbers into *p the way encoding/json
// fills a slice: elements land in the existing backing array while it
// has room (so a null element keeps what is stored at its index, which
// after a repeated key may be an earlier value), a longer array moves to
// a new exactly-sized one, [] is an empty non-nil slice and null is nil.
// The elements are parsed into the decoder-owned scratch first, so the
// result is allocated once at its final length.
func numbers[T int | float64](d *jsonDecoder, p *[]T, scratch *[]T, what string, parse func([]byte, string) (T, error)) error {
	if ok, err := d.container('[', what); !ok {
		*p = nil
		return err
	}
	old := (*p)[:cap(*p)]
	buf := (*scratch)[:0]
	err := d.array(func(n int) error {
		var v T
		if n < len(old) {
			v = old[n]
		}
		err := numberField(d, &v, what, parse)
		buf = append(buf, v)
		return err
	})
	if err != nil {
		return err
	}
	*scratch = buf
	switch {
	case len(buf) == 0:
		*p = []T{}
	case len(buf) <= len(old):
		*p = old[:len(buf)]
		copy(*p, buf)
	default:
		*p = append([]T(nil), buf...)
	}
	return nil
}

// container reads up to the value of a field whose type is an array
// (kind '[') or a struct (kind '{'): ok is true with that container at
// d.off, and false once a null is consumed or on a mismatch.
func (d *jsonDecoder) container(kind byte, what string) (ok bool, err error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case kind:
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch(c, what)
}

// array calls elem for each element of the array at d.off.
func (d *jsonDecoder) array(elem func(n int) error) error {
	if err := d.open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		if more, err := d.next(']', n); !more {
			return err
		}
		if err := elem(n); err != nil {
			return err
		}
	}
}

// noFields matches no key: the members of an unknown object are skipped.
var noFields fieldSet

// object calls field for each member of the object at d.off, with the
// member's value next and the index of its key in fs, or -1.
func (d *jsonDecoder) object(fs *fieldSet, field func(i int) error) error {
	if err := d.open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.member(n)
		if !ok {
			return err
		}
		if err := field(fs.index(key)); err != nil {
			return err
		}
	}
}

// skip consumes one value of any type, checking its syntax.
func (d *jsonDecoder) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.object(&noFields, func(int) error { return d.skip() })
	case '[':
		return d.array(func(int) error { return d.skip() })
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	if c == '-' || ('0' <= c && c <= '9') {
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// events decodes the batch array.
func (d *jsonDecoder) events(p *[]Event) error {
	if ok, err := d.container('[', "batch"); !ok {
		*p = nil
		return err
	}
	events := []Event{}
	err := d.array(func(n int) error {
		events = append(events, Event{})
		return d.event(&events[n])
	})
	*p = events
	return err
}

// event decodes one batch element: an object, or null for the zero Event.
func (d *jsonDecoder) event(e *Event) error {
	if ok, err := d.container('{', "event"); !ok {
		return err
	}
	return d.object(&eventFields, func(i int) error {
		switch i {
		case 0:
			return numberField(d, &e.Seq, "seq", d.parseUint)
		case 1:
			return d.kindField(&e.Kind)
		case 2:
			return objectPtr(d, &e.Worker, "worker", (*jsonDecoder).worker)
		case 3:
			return pointerField(d, &e.WorkerID, "worker_id", d.parseInt)
		case 4:
			return objectPtr(d, &e.Task, "task", (*jsonDecoder).task)
		case 5:
			return pointerField(d, &e.TaskID, "task_id", d.parseInt)
		case 6:
			return pointerField(d, &e.Round, "round", d.parseInt)
		case 7:
			return pointerField(d, &e.Epoch, "epoch", d.parseUint)
		}
		return d.skip()
	})
}

// objectPtr decodes an object into the struct *p points to, allocating it
// when *p is nil; null clears *p.
func objectPtr[T any](d *jsonDecoder, p **T, what string, object func(*jsonDecoder, *T) error) error {
	if ok, err := d.container('{', what); !ok {
		*p = nil
		return err
	}
	if *p == nil {
		*p = new(T)
	}
	return object(d, *p)
}

// worker decodes the object at d.off into w.
func (d *jsonDecoder) worker(w *market.Worker) error {
	return d.object(&workerFields, func(i int) error {
		switch i {
		case 0:
			return numberField(d, &w.ID, "id", d.parseInt)
		case 1:
			return numberField(d, &w.Capacity, "capacity", d.parseInt)
		case 2:
			return numbers(d, &w.Accuracy, &d.flts, "accuracy", d.parseFloat)
		case 3:
			return numbers(d, &w.Interest, &d.flts, "interest", d.parseFloat)
		case 4:
			return numbers(d, &w.Specialties, &d.ints, "specialties", d.parseInt)
		case 5:
			return numberField(d, &w.ReservationWage, "reservation_wage", d.parseFloat)
		}
		return d.skip()
	})
}

// task decodes the object at d.off into t.
func (d *jsonDecoder) task(t *market.Task) error {
	return d.object(&taskFields, func(i int) error {
		switch i {
		case 0:
			return numberField(d, &t.ID, "id", d.parseInt)
		case 1:
			return numberField(d, &t.Category, "category", d.parseInt)
		case 2:
			return numberField(d, &t.Replication, "replication", d.parseInt)
		case 3:
			return numberField(d, &t.Payment, "payment", d.parseFloat)
		case 4:
			return numberField(d, &t.Difficulty, "difficulty", d.parseFloat)
		}
		return d.skip()
	})
}

// appendBatchAck renders the POST /v1/batch response: byte for byte what
// json.Encoder writes for map[string]any{"applied": items}, trailing
// newline included.
func appendBatchAck(dst []byte, items []BatchItem) []byte {
	dst = append(dst, `{"applied":`...)
	if items == nil {
		return append(dst, "null}\n"...)
	}
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendUint(dst, items[i].Seq, 10)
		dst = append(dst, `,"kind":`...)
		dst = appendJSONString(dst, string(items[i].Kind))
		if items[i].ID != 0 {
			dst = append(dst, `,"id":`...)
			dst = strconv.AppendInt(dst, int64(items[i].ID), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendJSONString quotes s as encoding/json does.  Event kinds are plain
// ASCII identifiers; anything that would need escaping goes through
// json.Marshal, which escapes exactly as json.Encoder's default does.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
