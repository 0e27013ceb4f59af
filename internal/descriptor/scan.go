package descriptor

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The descriptor scanner reads a document in one pass over its source
// string. It is encoding/xml's Decoder.Token (rawToken, text, nsname,
// attrval, popElement) and Decoder.Skip narrowed to what the schema
// reads: it reports start and end tags, consumes text, comments,
// processing instructions, CDATA sections and directives in between, and
// applies every well-formedness check the Decoder applies to them, with
// the same *xml.SyntaxError text and line. Names and attribute values are
// substrings of the source; a value is copied only when it holds an
// entity reference or a carriage return that must be decoded.

// qname is an element or attribute name as written: prefix and local
// part, untranslated.
type qname struct{ prefix, local string }

// attr is one attribute of the last start tag. Its raw value is
// src[start:end]; escaped marks a value that holds '&' or '\r' and so
// differs from its decoded form.
type attr struct {
	name       qname
	start, end int
	quote      byte
	escaped    bool
}

// Token kinds returned by next.
const (
	tokStart = iota + 1
	tokEnd
)

// scanner reads one document. After next returns tokStart, tag and the
// attributes (nattrs of them, see attrAt) describe the start tag. The
// open elements and the attributes are held in fixed arrays that spill
// into slices, so that a scanner stays on its caller's stack.
type scanner struct {
	src string
	i   int // bytes consumed
	tag qname
	// depth elements are open, innermost last: the outermost in open,
	// the rest in deeper.
	depth  int
	open   [8]qname
	deeper []qname
	nattrs int
	attrs  [12]attr
	more   []attr
	// selfClosed is set by a start tag ending in "/>": its end tag is the
	// next token.
	selfClosed bool
}

func (s *scanner) push(n qname) {
	if s.depth < len(s.open) {
		s.open[s.depth] = n
	} else {
		s.deeper = append(s.deeper, n)
	}
	s.depth++
}

func (s *scanner) pop() qname {
	s.depth--
	if s.depth < len(s.open) {
		return s.open[s.depth]
	}
	n := s.deeper[len(s.deeper)-1]
	s.deeper = s.deeper[:len(s.deeper)-1]
	return n
}

// newAttr returns the slot for the next attribute of a start tag.
func (s *scanner) newAttr() *attr {
	if s.nattrs >= len(s.attrs)+len(s.more) {
		s.more = append(s.more, attr{})
	}
	a := s.attrAt(s.nattrs)
	a.escaped = false
	return a
}

// attrAt returns the k-th attribute of the last start tag.
func (s *scanner) attrAt(k int) *attr {
	if k < len(s.attrs) {
		return &s.attrs[k]
	}
	return &s.more[k-len(s.attrs)]
}

const (
	xmlURL      = "http://www.w3.org/XML/1998/namespace"
	xmlnsPrefix = "xmlns"
	xmlPrefix   = "xml"
)

// syntaxError reports msg at the line of the current position.
func (s *scanner) syntaxError(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: 1 + strings.Count(s.src[:s.i], "\n")}
}

// getc consumes one byte; running out of input is a syntax error.
func (s *scanner) getc() (byte, error) {
	if s.i >= len(s.src) {
		return 0, s.syntaxError("unexpected EOF")
	}
	b := s.src[s.i]
	s.i++
	return b, nil
}

// space skips XML white space.
func (s *scanner) space() {
	src, i := s.src, s.i
	for i < len(src) && (src[i] == ' ' || src[i] == '\n' || src[i] == '\t' || src[i] == '\r') {
		i++
	}
	s.i = i
}

// next scans to the next start or end tag. At the end of input it
// returns io.EOF when no element is open.
func (s *scanner) next() (int, error) {
	if s.selfClosed {
		s.selfClosed = false
		s.pop()
		return tokEnd, nil
	}
	for {
		// White space between tags is text that cannot fail its checks.
		s.space()
		if s.i >= len(s.src) {
			if s.depth > 0 {
				return 0, s.syntaxError("unexpected EOF")
			}
			return 0, io.EOF
		}
		var err error
		if s.src[s.i] != '<' {
			_, err = s.text(0, false, nil)
		} else {
			s.i++
			var b byte
			if b, err = s.getc(); err != nil {
				return 0, err
			}
			switch b {
			case '/':
				return tokEnd, s.endTag()
			case '?':
				err = s.procInst()
			case '!':
				err = s.bang()
			default:
				s.i--
				return tokStart, s.startTag()
			}
		}
		if err != nil {
			return 0, err
		}
	}
}

// startTag scans a start tag from its name and opens the element.
func (s *scanner) startTag() error {
	name, ok, err := s.nsname()
	if !ok {
		if err == nil {
			err = s.syntaxError("expected element name after <")
		}
		return err
	}
	s.nattrs, s.more = 0, s.more[:0]
	for {
		s.space()
		b, err := s.getc()
		if err != nil {
			return err
		}
		if b == '/' {
			if b, err = s.getc(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntaxError("expected /> in element")
			}
			s.selfClosed = true
			break
		}
		if b == '>' {
			break
		}
		s.i--
		a := s.newAttr()
		if a.name, ok, err = s.nsname(); !ok {
			if err == nil {
				err = s.syntaxError("expected attribute name in element")
			}
			return err
		}
		s.space()
		if b, err = s.getc(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntaxError("attribute name without = in element")
		}
		s.space()
		if a.quote, err = s.getc(); err != nil {
			return err
		}
		if a.quote != '"' && a.quote != '\'' {
			return s.syntaxError("unquoted or missing attribute value in element")
		}
		a.start = s.i
		if a.escaped, err = s.text(a.quote, false, nil); err != nil {
			return err
		}
		a.end = s.i - 1
		s.nattrs++
	}
	s.tag = name
	s.push(name)
	return nil
}

// endTag scans an end tag from its name and closes the innermost element,
// which must have the same prefix and local name.
func (s *scanner) endTag() error {
	name, ok, err := s.nsname()
	if !ok {
		if err == nil {
			err = s.syntaxError("expected element name after </")
		}
		return err
	}
	s.space()
	b, err := s.getc()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.syntaxError("invalid characters between </" + name.local + " and >")
	}
	if s.depth == 0 {
		return s.syntaxError("unexpected end element </" + name.local + ">")
	}
	top := s.pop()
	switch {
	case top.local != name.local:
		return s.syntaxError("element <" + top.local + "> closed by </" + name.local + ">")
	case top.prefix != name.prefix:
		ns := name.prefix
		if ns == "" {
			ns = `""`
		}
		return s.syntaxError("element <" + top.local + "> in space " + top.prefix +
			" closed by </" + name.local + "> in space " + ns)
	}
	return nil
}

// procInst scans a processing instruction after "<?". An xml
// declaration must name version 1.0 and a UTF-8 encoding, if any.
func (s *scanner) procInst() error {
	target, ok, err := s.name()
	if !ok {
		if err == nil {
			err = s.syntaxError("expected target name after <?")
		}
		return err
	}
	s.space()
	k := strings.Index(s.src[s.i:], "?>")
	if k < 0 {
		s.i = len(s.src)
		return s.syntaxError("unexpected EOF")
	}
	content := s.src[s.i : s.i+k]
	s.i += k + 2
	if target != "xml" {
		return nil
	}
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param in a processing
// instruction's content, by encoding/xml's own loose rule.
func procInstParam(param, s string) string {
	param += "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang scans what follows "<!": a comment, a CDATA section or a
// directive.
func (s *scanner) bang() error {
	b, err := s.getc()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		if b, err = s.getc(); err != nil {
			return err
		}
		if b != '-' {
			return s.syntaxError("invalid sequence <!- not part of <!--")
		}
		// The comment ends at its first "--", which must be followed by '>'.
		k := strings.Index(s.src[s.i:], "--")
		if k < 0 || s.i+k+2 >= len(s.src) {
			s.i = len(s.src)
			return s.syntaxError("unexpected EOF")
		}
		s.i += k + 3
		if s.src[s.i-1] != '>' {
			return s.syntaxError(`invalid sequence "--" not allowed in comments`)
		}
		return nil
	case '[':
		for k := 0; k < len("CDATA["); k++ {
			if b, err = s.getc(); err != nil {
				return err
			}
			if b != "CDATA["[k] {
				return s.syntaxError("invalid <![ sequence")
			}
		}
		_, err = s.text(0, true, nil)
		return err
	}
	// A directive such as <!DOCTYPE ...>: it ends at the first '>' outside
	// quotes, nested <...> pairs and <!-- --> comments. Its first byte is
	// taken as is.
	var inquote byte
	depth := 0
	for {
		if b, err = s.getc(); err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < len("!--"); k++ {
				if b, err = s.getc(); err != nil {
					return err
				}
				if b != "!--"[k] {
					depth++
					goto handle
				}
			}
			k := strings.Index(s.src[s.i:], "-->")
			if k < 0 {
				s.i = len(s.src)
				return s.syntaxError("unexpected EOF")
			}
			s.i += k + 3
		}
	}
}

// text scans character data from the current position: element content
// up to the next '<' or the end of input (quote 0, cdata false), an
// attribute value through its closing quote, or a CDATA section through
// its "]]>". It reports whether the data holds a '&' or '\r' that
// decoding rewrites, and appends the decoded data to out when out is not
// nil. As in the Decoder, the decoded data must be valid UTF-8 in the
// XML character range; that is checked at the end of the data, so a
// syntax error met on the way takes precedence.
func (s *scanner) text(quote byte, cdata bool, out *strings.Builder) (escaped bool, err error) {
	var b0, b1 byte
	var bad rune // first character outside the XML range, if badKind is set
	var badKind int
	const (
		badRange = iota + 1
		badUTF8
	)
	check := func(r rune, size int) {
		if badKind != 0 {
			return
		}
		if r == utf8.RuneError && size == 1 {
			badKind = badUTF8
		} else if !inCharRange(r) {
			bad, badKind = r, badRange
		}
	}
	eof := false
scan:
	for {
		// A run of plain characters needs no second look.
		if src, j := s.src, s.i; j < len(src) && plain[src[j]] {
			for j < len(src) && plain[src[j]] {
				j++
			}
			if out != nil {
				out.WriteString(src[s.i:j])
			}
			s.i = j
			b0, b1 = 0, 0
		}
		if s.i >= len(s.src) {
			if cdata {
				return false, s.syntaxError("unexpected EOF in CDATA section")
			}
			eof = true
			break
		}
		b := s.src[s.i]
		s.i++
		switch {
		case quote == 0 && b0 == ']' && b1 == ']' && b == '>':
			if cdata {
				break scan
			}
			return false, s.syntaxError("unescaped ]]> not in CDATA section")
		case b == '<' && !cdata:
			if quote != 0 {
				return false, s.syntaxError("unescaped < inside quoted string")
			}
			s.i--
			break scan
		case quote != 0 && b == quote:
			break scan
		case b == '&' && !cdata:
			r, err := s.entity(s.i - 1)
			if err != nil {
				return false, err
			}
			if !utf8.ValidRune(r) {
				r = utf8.RuneError
			}
			check(r, 0)
			if out != nil {
				out.WriteRune(r)
			}
			escaped = true
			b0, b1 = 0, 0
			continue
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s.src[s.i-1:])
			check(r, size)
			if out != nil {
				out.WriteString(s.src[s.i-1 : s.i-1+size])
			}
			s.i += size - 1
			if size > 1 {
				b0, b1 = s.src[s.i-2], s.src[s.i-1]
				continue
			}
		case b == '\r':
			// Decoding turns "\r\n" and a lone "\r" into "\n".
			escaped = true
			if out != nil {
				out.WriteByte('\n')
			}
			if s.i < len(s.src) && s.src[s.i] == '\n' {
				s.i++
				b0, b1 = b, '\n'
				continue
			}
		default:
			if b < ' ' {
				check(rune(b), 1)
			}
			if out != nil {
				out.WriteByte(b)
			}
		}
		b0, b1 = b1, b
	}
	switch badKind {
	case badUTF8:
		return false, s.syntaxError("invalid UTF-8")
	case badRange:
		return false, s.syntaxError(fmt.Sprintf("illegal character code %U", bad))
	}
	if eof && quote != 0 {
		return false, s.syntaxError("unexpected EOF")
	}
	return escaped, nil
}

// entity reads a character or entity reference whose '&' is at amp and
// returns the character it stands for. Only the five predefined entities
// are known.
func (s *scanner) entity(amp int) (rune, error) {
	b, err := s.getc()
	if err != nil {
		return 0, err
	}
	if b == '#' {
		if b, err = s.getc(); err != nil {
			return 0, err
		}
		base := 10
		if b == 'x' {
			base = 16
			if b, err = s.getc(); err != nil {
				return 0, err
			}
		}
		start := s.i - 1
		for '0' <= b && b <= '9' || base == 16 && ('a' <= b && b <= 'f' || 'A' <= b && b <= 'F') {
			if b, err = s.getc(); err != nil {
				return 0, err
			}
		}
		if b != ';' {
			s.i--
			return 0, s.badEntity(amp)
		}
		n, err := strconv.ParseUint(s.src[start:s.i-1], base, 64)
		if err != nil || n > unicode.MaxRune {
			return 0, s.badEntity(amp)
		}
		return rune(n), nil
	}
	s.i--
	for {
		if b, err = s.getc(); err != nil {
			return 0, err
		}
		if b < utf8.RuneSelf && !isNameByte(b) {
			break
		}
	}
	if b != ';' {
		s.i--
		return 0, s.badEntity(amp)
	}
	switch s.src[amp+1 : s.i-1] {
	case "lt":
		return '<', nil
	case "gt":
		return '>', nil
	case "amp":
		return '&', nil
	case "apos":
		return '\'', nil
	case "quot":
		return '"', nil
	}
	return 0, s.badEntity(amp)
}

func (s *scanner) badEntity(amp int) error {
	ent := s.src[amp:s.i]
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	return s.syntaxError("invalid character entity " + ent)
}

// plain marks the bytes text passes over without a second look: ASCII
// characters that are valid XML and mean nothing to markup, references,
// quoting, "]]>" or line-end decoding.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune("<&\"']>", c)
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// nameClass marks the bytes a name is read through: nameASCII for the
// ASCII name characters, nameNonASCII for every non-ASCII byte, whose
// validity isName decides.
var nameClass = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = nameNonASCII
		case isNameByte(byte(c)):
			t[c] = nameASCII
		}
	}
	return t
}()

const (
	nameASCII = 1 << iota
	nameNonASCII
)

// inCharRange reports whether r is an XML 1.0 Char.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// name reads an XML name. ok is false with a nil error when no name
// starts at the current position.
func (s *scanner) name() (n string, ok bool, err error) {
	src, start, i := s.src, s.i, s.i
	var class byte
	for i < len(src) {
		c := nameClass[src[i]]
		if c == 0 {
			break
		}
		class |= c
		i++
	}
	s.i = i
	if s.i >= len(s.src) {
		return "", false, s.syntaxError("unexpected EOF")
	}
	if s.i == start {
		return "", false, nil
	}
	n = s.src[start:s.i]
	if !isName(n, class&nameNonASCII != 0) {
		return "", false, s.syntaxError("invalid XML name: " + n)
	}
	return n, true, nil
}

// nsname reads a name with at most one ':' separating a non-empty prefix
// from a non-empty local part.
func (s *scanner) nsname() (qname, bool, error) {
	n, ok, err := s.name()
	if !ok {
		return qname{}, false, err
	}
	c := strings.IndexByte(n, ':')
	switch {
	case c < 0:
		return qname{local: n}, true, nil
	case strings.IndexByte(n[c+1:], ':') >= 0:
		return qname{}, false, nil
	case c == 0 || c == len(n)-1:
		return qname{local: n}, true, nil
	}
	return qname{n[:c], n[c+1:]}, true, nil
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isName reports whether n, made of name bytes, is an XML name. An
// ASCII name must start with a letter, '_' or ':'. A name with non-ASCII
// bytes is held to XML 1.0's Letter and NameChar tables (Appendix B),
// which encoding/xml does not export but applies to a processing
// instruction's target when encoding one.
func isName(n string, nonASCII bool) bool {
	if nonASCII {
		return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: n}) == nil
	}
	c := n[0]
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// value returns an attribute's decoded value: a substring of the source
// unless it must be decoded.
func (s *scanner) value(a *attr) string {
	if !a.escaped {
		return s.src[a.start:a.end]
	}
	return s.unescape(a)
}

// unescape decodes an escaped attribute value.
func (s *scanner) unescape(a *attr) string {
	var b strings.Builder
	b.Grow(a.end - a.start)
	t := scanner{src: s.src, i: a.start}
	t.text(a.quote, false, &b)
	return b.String()
}

// setAttrs copies the value of each attribute of the last start tag
// whose local name is names[i] into *fields[i]; a later duplicate
// overwrites an earlier one, as in xml.Unmarshal.
func (s *scanner) setAttrs(names []string, fields ...*string) {
	for k := 0; k < s.nattrs; k++ {
		a := s.attrAt(k)
		for i, n := range names {
			if a.name.local == n {
				*fields[i] = s.value(a)
			}
		}
	}
}

// rootSpace returns the namespace of the root start tag as Decoder.Token
// translates it: a prefix bound by the tag's own xmlns attributes (or the
// default namespace for no prefix) becomes its URL, "xml" the XML
// namespace, and an unbound prefix stays as written.
func (s *scanner) rootSpace() string {
	n := s.tag
	switch {
	case n.prefix == xmlnsPrefix:
		return n.prefix
	case n.prefix == xmlPrefix:
		return xmlURL
	case n.prefix == "" && n.local == xmlnsPrefix:
		return ""
	}
	space := n.prefix
	for k := 0; k < s.nattrs; k++ {
		a := s.attrAt(k)
		if n.prefix != "" && a.name == (qname{xmlnsPrefix, n.prefix}) ||
			n.prefix == "" && a.name == (qname{"", xmlnsPrefix}) {
			space = s.value(a)
		}
	}
	return space
}

// decode reads one descriptor document into its wire form. It yields
// what xml.Unmarshal yields over the xmlComponent schema and stops where
// Unmarshal stops, at the root's end tag: attributes match by local name
// and a later duplicate wins, a repeated single element merges into the
// first, unknown or deeper elements are skipped, and errors are the same
// values.
func decode(src string) (xmlComponent, error) {
	var xc xmlComponent
	s := scanner{src: src}
	if _, err := s.next(); err != nil {
		return xc, err
	}
	if s.tag.local != "component" {
		return xc, xml.UnmarshalError("expected element type <component> but have <" + s.tag.local + ">")
	}
	xc.XMLName = xml.Name{Space: s.rootSpace(), Local: s.tag.local}
	s.setAttrs(componentAttrs, &xc.Name, &xc.Desc, &xc.Type, &xc.Enabled, &xc.CPUUsage, &xc.Importance)
	for {
		kind, err := s.next()
		if err != nil {
			return xc, err
		}
		switch {
		case kind == tokEnd && s.depth == 0:
			return xc, nil
		case kind == tokStart && s.depth == 2:
			xc.child(&s)
		}
	}
}

// child records the attributes of one top-level element.
func (xc *xmlComponent) child(s *scanner) {
	switch s.tag.local {
	case "implementation":
		im := &xc.Implementation
		s.setAttrs(implAttrs, &im.Bincode, &im.Class)
	case "periodictask":
		if xc.PeriodicTask == nil {
			xc.PeriodicTask = &xmlPeriodic{}
		}
		pt := xc.PeriodicTask
		s.setAttrs(periodicAttrs, &pt.Frequence, &pt.Frequency, &pt.RunOnCup, &pt.RunOnCPU, &pt.Priority)
	case "aperiodictask":
		if xc.AperiodicTask == nil {
			xc.AperiodicTask = &xmlAperiodic{}
		}
		at := xc.AperiodicTask
		s.setAttrs(aperiodicAttrs, &at.RunOnCup, &at.RunOnCPU, &at.Priority)
	case "budget":
		if xc.Budget == nil {
			xc.Budget = &xmlBudget{}
		}
		s.setAttrs(budgetAttrs, &xc.Budget.Dist, &xc.Budget.P)
	case "outport", "inport":
		var p xmlPort
		s.setAttrs(portAttrs, &p.Name, &p.Interface, &p.Type, &p.Size, &p.Version, &p.DataType)
		if s.tag.local == "outport" {
			xc.OutPorts = append(xc.OutPorts, p)
		} else {
			xc.InPorts = append(xc.InPorts, p)
		}
	case "mode":
		var m xmlMode
		s.setAttrs(modeAttrs, &m.Name, &m.Frequence, &m.Frequency, &m.CPUUsage, &m.Drops)
		xc.Modes = append(xc.Modes, m)
	case "property":
		var p xmlProperty
		s.setAttrs(propertyAttrs, &p.Name, &p.Type, &p.Value)
		xc.Properties = append(xc.Properties, p)
	}
}

// sniff reads the first element through its end tag and returns its
// local name.
func sniff(src string) (string, error) {
	s := scanner{src: src}
	_, err := s.next()
	root := s.tag.local
	for err == nil && s.depth > 0 {
		_, err = s.next()
	}
	return root, err
}
