package vocab

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"nakika/internal/script"
)

// xmlParser is XML.parse's scanner: one pass over the document that builds
// the script's node objects directly. It accepts what encoding/xml's strict
// decoder accepts, and reads it the same way (FuzzXMLParse holds the two
// side by side):
//   - the five predefined entities and character references are decoded,
//     and \r\n or a lone \r reads as \n;
//   - comments, processing instructions and directives (DOCTYPE) are
//     skipped, and CDATA sections are text;
//   - a prefixed name keeps its local part, and attributes are sorted by
//     name, the last of a repeated one winning;
//   - a text chunk that is only whitespace is dropped;
//   - after the document element closes, what follows is checked only as
//     far as its first error outside any element.
//
// Text and attribute values that need no decoding are substrings of the
// document, not copies. Elements nest at most maxXMLDepth deep.
type xmlParser struct {
	s     string
	i     int            // read position in s
	root  *script.Object // the document element, once it starts
	stack []xmlOpen      // the elements started and not yet ended
	kids  []script.Value // the children of the open elements, stacked
	attrs []xmlAttr      // the start tag being read
}

type xmlOpen struct {
	qname string // the name as written; the end tag must repeat it
	node  *script.Object
	text  string
	kids  int // where this element's children start in xmlParser.kids
}

type xmlAttr struct{ name, value string }

// parseXML parses a document into node objects rooted at its document
// element.
func parseXML(s string) (*script.Object, error) {
	var stack [8]xmlOpen
	var kids [16]script.Value
	p := &xmlParser{s: s, stack: stack[:0], kids: kids[:0]}
	for p.i < len(s) {
		if err := p.token(); err != nil {
			if p.root != nil && len(p.stack) == 0 {
				break // what follows the document element ends at its first error
			}
			return nil, err
		}
	}
	switch {
	case len(p.stack) > 0:
		return nil, p.eof()
	case p.root == nil:
		return nil, p.errorf("no document element")
	}
	return p.root, nil
}

func (p *xmlParser) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", 1+strings.Count(p.s[:p.i], "\n"), fmt.Sprintf(format, args...))
}

func (p *xmlParser) eof() error {
	p.i = len(p.s)
	return p.errorf("unexpected EOF")
}

// expect consumes the byte c, or fails with msg.
func (p *xmlParser) expect(c byte, msg string) error {
	if p.i == len(p.s) {
		return p.eof()
	}
	if p.s[p.i] != c {
		return p.errorf("%s", msg)
	}
	p.i++
	return nil
}

// token reads character data or one markup construct.
func (p *xmlParser) token() error {
	if p.s[p.i] != '<' {
		return p.text(false)
	}
	p.i++
	if p.i == len(p.s) {
		return p.eof()
	}
	switch p.s[p.i] {
	case '/':
		p.i++
		return p.endTag()
	case '?':
		p.i++
		return p.procInst()
	case '!':
		p.i++
		return p.bang()
	}
	return p.startTag()
}

// text reads a chunk of character data (content, or a CDATA section) into
// the innermost open element, unless the chunk is only whitespace.
func (p *xmlParser) text(cdata bool) error {
	text, err := p.chars(0, cdata)
	if err != nil || len(p.stack) == 0 || strings.TrimSpace(text) == "" {
		return err
	}
	p.stack[len(p.stack)-1].text += text
	return nil
}

func (p *xmlParser) startTag() error {
	qname, err := p.qname("expected element name after <")
	if err != nil {
		return err
	}
	p.attrs = p.attrs[:0]
	for {
		p.space()
		if p.i == len(p.s) {
			return p.eof()
		}
		switch p.s[p.i] {
		case '>':
			p.i++
			return p.open(qname)
		case '/':
			p.i++
			if err := p.expect('>', "expected /> in element"); err != nil {
				return err
			}
			if err := p.open(qname); err != nil {
				return err
			}
			p.close()
			return nil
		}
		name, err := p.qname("expected attribute name in element")
		if err != nil {
			return err
		}
		p.space()
		if err := p.expect('=', "attribute name without = in element"); err != nil {
			return err
		}
		p.space()
		if p.i == len(p.s) {
			return p.eof()
		}
		quote := p.s[p.i]
		if quote != '"' && quote != '\'' {
			return p.errorf("unquoted or missing attribute value in element")
		}
		p.i++
		value, err := p.chars(quote, false)
		if err != nil {
			return err
		}
		p.attrs = append(p.attrs, xmlAttr{localName(name), value})
	}
}

// open starts an element whose start tag has been read. Its node joins its
// parent when it ends; one that follows the document element joins nothing.
func (p *xmlParser) open(qname string) error {
	if len(p.stack) == maxXMLDepth {
		return p.errorf("elements nested deeper than %d", maxXMLDepth)
	}
	node := script.NewObject()
	node.Set("name", script.Str(localName(qname)))
	attrs := script.NewObject()
	slices.SortStableFunc(p.attrs, func(a, b xmlAttr) int { return strings.Compare(a.name, b.name) })
	for _, a := range p.attrs {
		attrs.Set(a.name, script.Str(a.value))
	}
	node.Set("attrs", attrs)
	if p.root == nil {
		p.root = node
	}
	p.stack = append(p.stack, xmlOpen{qname: qname, node: node, kids: len(p.kids)})
	return nil
}

// close ends the innermost open element.
func (p *xmlParser) close() {
	top := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	top.node.Set("text", script.Str(top.text))
	children := script.NewArray()
	if len(p.kids) > top.kids {
		children.Elems = slices.Clone(p.kids[top.kids:])
		p.kids = p.kids[:top.kids]
	}
	top.node.Set("children", children)
	if len(p.stack) > 0 {
		p.kids = append(p.kids, top.node)
	}
}

func (p *xmlParser) endTag() error {
	qname, err := p.qname("expected element name after </")
	if err != nil {
		return err
	}
	p.space()
	if err := p.expect('>', "invalid characters in end tag"); err != nil {
		return err
	}
	if len(p.stack) == 0 {
		return p.errorf("unexpected end element </%s>", qname)
	}
	if open := p.stack[len(p.stack)-1].qname; open != qname {
		return p.errorf("element <%s> closed by </%s>", open, qname)
	}
	p.close()
	return nil
}

// procInst skips a processing instruction, checking an XML declaration's
// version and encoding as encoding/xml does.
func (p *xmlParser) procInst() error {
	target, err := p.name("expected target name after <?")
	if err != nil {
		return err
	}
	p.space()
	end := strings.Index(p.s[p.i:], "?>")
	if end < 0 {
		return p.eof()
	}
	content := p.s[p.i : p.i+end]
	p.i += end + len("?>")
	if target == "xml" {
		if v := procInstParam("version", content); v != "" && v != "1.0" {
			return p.errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return p.errorf("unsupported encoding %q", enc)
		}
	}
	return nil
}

// procInstParam finds param's quoted value in a processing instruction as
// encoding/xml does: at the first `param=` directly followed by a quote,
// up to the next such quote; "" when there is none.
func procInstParam(param, s string) string {
	param += "="
	for {
		k := strings.Index(s, param)
		if k < 0 || k+len(param) >= len(s) {
			return ""
		}
		quote := s[k+len(param)]
		s = s[k+len(param)+1:]
		if quote == '"' || quote == '\'' {
			if end := strings.IndexByte(s, quote); end >= 0 {
				return s[:end]
			}
			return ""
		}
	}
}

// bang reads what follows "<!": a comment, a CDATA section or a directive.
func (p *xmlParser) bang() error {
	if p.i == len(p.s) {
		return p.eof()
	}
	switch p.s[p.i] {
	case '-':
		p.i++
		if err := p.expect('-', "invalid sequence <!- not part of <!--"); err != nil {
			return err
		}
		// The first "--" must end the comment.
		end := strings.Index(p.s[p.i:], "--")
		if end < 0 {
			return p.eof()
		}
		p.i += end + 2
		return p.expect('>', `invalid sequence "--" not allowed in comments`)
	case '[':
		p.i++
		for _, want := range []byte("CDATA[") {
			if err := p.expect(want, "invalid <![ sequence"); err != nil {
				return err
			}
		}
		return p.text(true)
	}
	return p.directive()
}

// directive skips a declaration such as <!DOCTYPE ...> the way encoding/xml
// reads one: the byte after "<!" is taken as it is, quotes hide '<' and
// '>', another '<' opens a level that a '>' closes, and "<!--" opens a
// comment that runs to "-->".
func (p *xmlParser) directive() error {
	p.i++
	var quote byte
	depth := 0
	for {
		if p.i == len(p.s) {
			return p.eof()
		}
		b := p.s[p.i]
		p.i++
		if quote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for _, want := range []byte("!--") {
				if p.i == len(p.s) {
					return p.eof()
				}
				b = p.s[p.i]
				p.i++
				if b != want {
					depth++
					goto handle
				}
			}
			end := strings.Index(p.s[p.i:], "-->")
			if end < 0 {
				return p.eof()
			}
			p.i += end + len("-->")
		}
	}
}

func (p *xmlParser) space() {
	for p.i < len(p.s) && strings.IndexByte(" \r\n\t", p.s[p.i]) >= 0 {
		p.i++
	}
}

// name reads a name: the run of bytes one may hold, then checked whole.
// missing is the error when no name starts here.
func (p *xmlParser) name(missing string) (string, error) {
	start := p.i
	for p.i < len(p.s) && isXMLNameByte(p.s[p.i]) {
		p.i++
	}
	switch name := p.s[start:p.i]; {
	case p.i == len(p.s):
		return "", p.eof()
	case name == "":
		return "", p.errorf("%s", missing)
	case !isXMLName(name):
		return "", p.errorf("invalid XML name %q", name)
	default:
		return name, nil
	}
}

// qname reads an element or attribute name, which has at most one colon.
func (p *xmlParser) qname(missing string) (string, error) {
	name, err := p.name(missing)
	if err == nil && strings.Count(name, ":") > 1 {
		return "", p.errorf("%s", missing)
	}
	return name, err
}

// localName is a qualified name's local part: what follows the prefix's
// colon, if the name has a prefix.
func localName(qname string) string {
	if prefix, local, ok := strings.Cut(qname, ":"); ok && prefix != "" && local != "" {
		return local
	}
	return qname
}

// chars reads character data up to its end: the next '<' for content (left
// unread), the closing quote for an attribute value, "]]>" for a CDATA
// section. References are decoded (not in CDATA), and \r\n or a lone \r
// reads as \n. It rejects "]]>" in content, '<' in an attribute value and
// any rune outside XML's character range.
func (p *xmlParser) chars(quote byte, cdata bool) (string, error) {
	s, start, stop := p.s, p.i, -1
	if !cdata {
		// Most data is read in one scan to its delimiter: a run that holds
		// no reference, no \r, no '<' in a value and no "]]>" in content is
		// a substring of the document as it stands.
		delim := byte('<')
		if quote != 0 {
			delim = quote
		}
		end := strings.IndexByte(s[start:], delim)
		if end < 0 && quote == 0 {
			end = len(s) - start
		}
		if end >= 0 {
			run := s[start : start+end]
			if strings.IndexByte(run, '&') < 0 && strings.IndexByte(run, '\r') < 0 &&
				(quote == 0 && !strings.Contains(run, "]]>") || quote != 0 && strings.IndexByte(run, '<') < 0) {
				stop, p.i = start+end, start+end
				if quote != 0 {
					p.i++
				}
			}
		}
	}
	var buf []byte  // the data, once it is no longer s[start:p.i]
	var b0, b1 byte // the two bytes before s[p.i]
	for stop < 0 {
		if p.i == len(s) {
			if quote != 0 || cdata {
				return "", p.eof()
			}
			stop = p.i
			break
		}
		b := s[p.i]
		switch {
		case quote == 0 && b0 == ']' && b1 == ']' && b == '>':
			if !cdata {
				return "", p.errorf("unescaped ]]> not in CDATA section")
			}
			stop = p.i - 2
			if buf != nil {
				buf = buf[:len(buf)-2]
			}
			p.i++
		case b == '<' && !cdata:
			if quote != 0 {
				return "", p.errorf("unescaped < inside quoted string")
			}
			stop = p.i
		case quote != 0 && b == quote:
			stop = p.i
			p.i++
		case b == '&' && !cdata:
			text, n := xmlReference(s[p.i:])
			if n == 0 {
				return "", p.errorf("invalid character entity %.12q", s[p.i:])
			}
			if buf == nil {
				buf = append([]byte(nil), s[start:p.i]...)
			}
			buf = append(buf, text...)
			p.i += n
			b0, b1 = 0, 0
			continue
		case b == '\r':
			if buf == nil {
				buf = append([]byte(nil), s[start:p.i]...)
			}
			buf = append(buf, '\n')
		case b1 == '\r' && b == '\n':
			// The \r already read as this \n.
		case buf != nil:
			buf = append(buf, b)
		}
		if stop < 0 {
			b0, b1 = b1, b
			p.i++
		}
	}
	data := s[start:stop]
	if buf != nil {
		data = string(buf)
	}
	if msg := badXMLChars(data); msg != "" {
		return "", p.errorf("%s", msg)
	}
	return data, nil
}

var xmlEntities = map[string]string{"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": `"`}

// xmlReference decodes the reference that starts s ('&'): one of the five
// predefined entities, or a character reference (&#N; or &#xH;) to a rune
// up to U+10FFFF. It returns the text and the length of the reference, or
// n == 0 if it is not one.
func xmlReference(s string) (text string, n int) {
	i, base := 1, 0
	if strings.HasPrefix(s, "&#x") {
		i, base = 3, 16
	} else if strings.HasPrefix(s, "&#") {
		i, base = 2, 10
	}
	end := i
	for end < len(s) && (base == 0 && isXMLNameByte(s[end]) || base != 0 && isDigit(s[end], base)) {
		end++
	}
	if end == len(s) || s[end] != ';' {
		return "", 0
	}
	if base == 0 {
		text, ok := xmlEntities[s[i:end]]
		if !ok {
			return "", 0
		}
		return text, end + 1
	}
	r, err := strconv.ParseUint(s[i:end], base, 64)
	if err != nil || r > utf8.MaxRune {
		return "", 0
	}
	return string(rune(r)), end + 1
}

func isDigit(c byte, base int) bool {
	return '0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
}

// badXMLChars describes the first rune of s that is invalid UTF-8 or
// outside XML's character range, or returns "" if there is none.
func badXMLChars(s string) string {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return fmt.Sprintf("illegal character code %U", rune(c))
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			return "invalid UTF-8"
		}
		if r == 0xFFFE || r == 0xFFFF { // the decoder yields no surrogate and nothing past U+10FFFF
			return fmt.Sprintf("illegal character code %U", r)
		}
		i += n
	}
	return ""
}

// isXMLNameByte reports whether c may be part of a name, as encoding/xml
// reads one: every byte of a multi-byte rune may, and isXMLName then checks
// the whole.
func isXMLNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
}

// isXMLName reports whether s is a name under XML 1.0's Appendix B
// classes, which are the ones encoding/xml checks: a letter, '_' or ':',
// then letters, digits, '.', '-', combining characters and extenders.
func isXMLName(s string) bool {
	for i, r := range s {
		var ok bool
		switch {
		case r == utf8.RuneError: // invalid UTF-8, and U+FFFD is no name rune
		case r < utf8.RuneSelf:
			ok = isXMLNameByte(byte(r)) && (i > 0 || !isDigit(byte(r), 10) && r != '.' && r != '-')
		case inRanges(r, xmlNameStart):
			ok = true
		default:
			ok = i > 0 && inRanges(r, xmlNameRest)
		}
		if !ok {
			return false
		}
	}
	return s != ""
}

// inRanges reports whether r falls in one of the sorted, inclusive [lo, hi]
// pairs of ranges.
func inRanges(r rune, ranges []uint16) bool {
	n := len(ranges) / 2
	i := sort.Search(n, func(i int) bool { return rune(ranges[2*i+1]) >= r })
	return i < n && rune(ranges[2*i]) <= r
}

// xmlNameStart holds the non-ASCII runes a name may start with, and
// xmlNameRest the further ones it may continue with, as [lo, hi] pairs.
// Both are encoding/xml's tables, read back from its decoder rune by rune;
// TestXMLNameTablesMatchEncodingXML checks them the same way.
var xmlNameStart = []uint16{
	0x00C0, 0x00D6, 0x00D8, 0x00F6, 0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148,
	0x014A, 0x017E, 0x0180, 0x01C3, 0x01CD, 0x01F0, 0x01F4, 0x01F5, 0x01FA, 0x0217,
	0x0250, 0x02A8, 0x02BB, 0x02C1, 0x0386, 0x0386, 0x0388, 0x038A, 0x038C, 0x038C,
	0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6, 0x03DA, 0x03DA, 0x03DC, 0x03DC,
	0x03DE, 0x03DE, 0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C, 0x040E, 0x044F,
	0x0451, 0x045C, 0x045E, 0x0481, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC,
	0x04D0, 0x04EB, 0x04EE, 0x04F5, 0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559,
	0x0561, 0x0586, 0x05D0, 0x05EA, 0x05F0, 0x05F2, 0x0621, 0x063A, 0x0641, 0x064A,
	0x0671, 0x06B7, 0x06BA, 0x06BE, 0x06C0, 0x06CE, 0x06D0, 0x06D3, 0x06D5, 0x06D5,
	0x06E5, 0x06E6, 0x0905, 0x0939, 0x093D, 0x093D, 0x0958, 0x0961, 0x0985, 0x098C,
	0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2, 0x09B6, 0x09B9,
	0x09DC, 0x09DD, 0x09DF, 0x09E1, 0x09F0, 0x09F1, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10,
	0x0A13, 0x0A28, 0x0A2A, 0x0A30, 0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39,
	0x0A59, 0x0A5C, 0x0A5E, 0x0A5E, 0x0A72, 0x0A74, 0x0A85, 0x0A8B, 0x0A8D, 0x0A8D,
	0x0A8F, 0x0A91, 0x0A93, 0x0AA8, 0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3, 0x0AB5, 0x0AB9,
	0x0ABD, 0x0ABD, 0x0AE0, 0x0AE0, 0x0B05, 0x0B0C, 0x0B0F, 0x0B10, 0x0B13, 0x0B28,
	0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39, 0x0B3D, 0x0B3D, 0x0B5C, 0x0B5D,
	0x0B5F, 0x0B61, 0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A,
	0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5,
	0x0BB7, 0x0BB9, 0x0C05, 0x0C0C, 0x0C0E, 0x0C10, 0x0C12, 0x0C28, 0x0C2A, 0x0C33,
	0x0C35, 0x0C39, 0x0C60, 0x0C61, 0x0C85, 0x0C8C, 0x0C8E, 0x0C90, 0x0C92, 0x0CA8,
	0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CDE, 0x0CDE, 0x0CE0, 0x0CE1, 0x0D05, 0x0D0C,
	0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D60, 0x0D61, 0x0E01, 0x0E2E,
	0x0E30, 0x0E30, 0x0E32, 0x0E33, 0x0E40, 0x0E45, 0x0E81, 0x0E82, 0x0E84, 0x0E84,
	0x0E87, 0x0E88, 0x0E8A, 0x0E8A, 0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F,
	0x0EA1, 0x0EA3, 0x0EA5, 0x0EA5, 0x0EA7, 0x0EA7, 0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE,
	0x0EB0, 0x0EB0, 0x0EB2, 0x0EB3, 0x0EBD, 0x0EBD, 0x0EC0, 0x0EC4, 0x0F40, 0x0F47,
	0x0F49, 0x0F69, 0x10A0, 0x10C5, 0x10D0, 0x10F6, 0x1100, 0x1100, 0x1102, 0x1103,
	0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C, 0x110E, 0x1112, 0x113C, 0x113C,
	0x113E, 0x113E, 0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E, 0x1150, 0x1150,
	0x1154, 0x1155, 0x1159, 0x1159, 0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165,
	0x1167, 0x1167, 0x1169, 0x1169, 0x116D, 0x116E, 0x1172, 0x1173, 0x1175, 0x1175,
	0x119E, 0x119E, 0x11A8, 0x11A8, 0x11AB, 0x11AB, 0x11AE, 0x11AF, 0x11B7, 0x11B8,
	0x11BA, 0x11BA, 0x11BC, 0x11C2, 0x11EB, 0x11EB, 0x11F0, 0x11F0, 0x11F9, 0x11F9,
	0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15, 0x1F18, 0x1F1D, 0x1F20, 0x1F45,
	0x1F48, 0x1F4D, 0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B, 0x1F5D, 0x1F5D,
	0x1F5F, 0x1F7D, 0x1F80, 0x1FB4, 0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4,
	0x1FC6, 0x1FCC, 0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB, 0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4,
	0x1FF6, 0x1FFC, 0x2126, 0x2126, 0x212A, 0x212B, 0x212E, 0x212E, 0x2180, 0x2182,
	0x3007, 0x3007, 0x3021, 0x3029, 0x3041, 0x3094, 0x30A1, 0x30FA, 0x3105, 0x312C,
	0x4E00, 0x9FA5, 0xAC00, 0xD7A3}

var xmlNameRest = []uint16{
	0x00B7, 0x00B7, 0x02D0, 0x02D1, 0x0300, 0x0345, 0x0360, 0x0361, 0x0387, 0x0387,
	0x0483, 0x0486, 0x0591, 0x05A1, 0x05A3, 0x05B9, 0x05BB, 0x05BD, 0x05BF, 0x05BF,
	0x05C1, 0x05C2, 0x05C4, 0x05C4, 0x0640, 0x0640, 0x064B, 0x0652, 0x0660, 0x0669,
	0x0670, 0x0670, 0x06D6, 0x06E4, 0x06E7, 0x06E8, 0x06EA, 0x06ED, 0x06F0, 0x06F9,
	0x0901, 0x0903, 0x093C, 0x093C, 0x093E, 0x094D, 0x0951, 0x0954, 0x0962, 0x0963,
	0x0966, 0x096F, 0x0981, 0x0983, 0x09BC, 0x09BC, 0x09BE, 0x09C4, 0x09C7, 0x09C8,
	0x09CB, 0x09CD, 0x09D7, 0x09D7, 0x09E2, 0x09E3, 0x09E6, 0x09EF, 0x0A02, 0x0A02,
	0x0A3C, 0x0A3C, 0x0A3E, 0x0A42, 0x0A47, 0x0A48, 0x0A4B, 0x0A4D, 0x0A66, 0x0A71,
	0x0A81, 0x0A83, 0x0ABC, 0x0ABC, 0x0ABE, 0x0AC5, 0x0AC7, 0x0AC9, 0x0ACB, 0x0ACD,
	0x0AE6, 0x0AEF, 0x0B01, 0x0B03, 0x0B3C, 0x0B3C, 0x0B3E, 0x0B43, 0x0B47, 0x0B48,
	0x0B4B, 0x0B4D, 0x0B56, 0x0B57, 0x0B66, 0x0B6F, 0x0B82, 0x0B83, 0x0BBE, 0x0BC2,
	0x0BC6, 0x0BC8, 0x0BCA, 0x0BCD, 0x0BD7, 0x0BD7, 0x0BE7, 0x0BEF, 0x0C01, 0x0C03,
	0x0C3E, 0x0C44, 0x0C46, 0x0C48, 0x0C4A, 0x0C4D, 0x0C55, 0x0C56, 0x0C66, 0x0C6F,
	0x0C82, 0x0C83, 0x0CBE, 0x0CC4, 0x0CC6, 0x0CC8, 0x0CCA, 0x0CCD, 0x0CD5, 0x0CD6,
	0x0CE6, 0x0CEF, 0x0D02, 0x0D03, 0x0D3E, 0x0D43, 0x0D46, 0x0D48, 0x0D4A, 0x0D4D,
	0x0D57, 0x0D57, 0x0D66, 0x0D6F, 0x0E31, 0x0E31, 0x0E34, 0x0E3A, 0x0E46, 0x0E4E,
	0x0E50, 0x0E59, 0x0EB1, 0x0EB1, 0x0EB4, 0x0EB9, 0x0EBB, 0x0EBC, 0x0EC6, 0x0EC6,
	0x0EC8, 0x0ECD, 0x0ED0, 0x0ED9, 0x0F18, 0x0F19, 0x0F20, 0x0F29, 0x0F35, 0x0F35,
	0x0F37, 0x0F37, 0x0F39, 0x0F39, 0x0F3E, 0x0F3F, 0x0F71, 0x0F84, 0x0F86, 0x0F8B,
	0x0F90, 0x0F95, 0x0F97, 0x0F97, 0x0F99, 0x0FAD, 0x0FB1, 0x0FB7, 0x0FB9, 0x0FB9,
	0x20D0, 0x20DC, 0x20E1, 0x20E1, 0x3005, 0x3005, 0x302A, 0x302F, 0x3031, 0x3035,
	0x3099, 0x309A, 0x309D, 0x309E, 0x30FC, 0x30FE}
