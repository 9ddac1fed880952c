package sigvm

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode/utf8"

	"extractocol/internal/siglang"
)

// The text engine is a Pike VM (breadth-first Thompson-NFA simulation)
// over a five-opcode bytecode compiled directly from the signature tree,
// mirroring siglang.writeRegex construct for construct:
//
//	opByte  b    consume exactly the byte b            (QuoteMeta literal)
//	opDigit      consume one byte in [0-9]             ([0-9] of "[0-9]+")
//	opNotNL      consume any byte except '\n'          (. of ".*")
//	opSplit x y  fork: continue at both x and y        (*, | and + loops)
//	opJmp   x    continue at x                         (loop back-edges)
//	opMatch      accept iff the whole input is consumed
//
// Programs are anchored on both ends, exactly like siglang.Regex's "^...$":
// execution starts at pc 0 on byte 0 and opMatch only accepts at
// end-of-input (Go's regexp "$" without (?m) likewise matches only at end
// of text). Matching is byte-wise where Go's regexp is rune-wise; the two
// agree on every pattern the renderer can emit: literals match their exact
// bytes, "[0-9]+" is pure ASCII, and ".*" — any run of runes excluding
// '\n' — equals any run of bytes excluding 0x0A, because 0x0A never occurs
// inside a multi-byte UTF-8 sequence and invalid bytes decode to U+FFFD,
// which '.' matches. Thread lists are deduplicated per input position, so
// the epsilon cycles produced by empty repetition bodies ("(?:)*")
// terminate.
type op uint8

const (
	opByte op = iota
	opDigit
	opNotNL
	opSplit
	opJmp
	opMatch
)

type inst struct {
	op   op
	b    byte
	x, y uint32
}

// TextProg is one compiled text signature: the Pike bytecode plus the
// precomputed byte-accounting inputs MatchText derives per call (literal
// fragments, rendered-regex length for best-match tie-breaking) and the
// fast-path summaries (anchored literal prefix, whole-literal form).
type TextProg struct {
	insts []inst
	lits  []string // literal fragments, for AccountText
	spec  int      // len(siglang.Regex(sig)): the tie-break weight
	valid bool     // the rendered regex parses; invalid progs never match

	prefix    string // unconditional anchored literal prefix
	prefixLen uint32 // leading opByte count; the VM resumes past them
	literal   string // whole program is this exact literal ("" when not)
	isLit     bool
	altLits   []string // program accepts exactly these strings (nil: no)
	anyNoNL   bool     // program is ".*": accepts any input without '\n'

	// re is a rare rune-semantics fallback: Go's regexp matches runes, and
	// an input byte that is not valid UTF-8 decodes to U+FFFD — so a
	// signature literal containing U+FFFD matches any invalid byte, which
	// no byte comparison can reproduce. Programs whose rendered pattern
	// contains U+FFFD (equivalently: some literal does) keep the compiled
	// regexp and match through it; every other pattern the renderer emits
	// is byte/rune agnostic.
	re *regexp.Regexp
}

// compileText lowers a text signature to bytecode. Validity follows the
// regex renderer exactly: a signature whose rendered regex regexp.Compile
// rejects yields a program that never matches — the same outcome as the
// oracle's MatchText error return (oracle_test.go). regexp.Compile fails
// only where syntax.Parse with the Perl flags does, so parsing the one
// rendering decides validity without building a regexp program.
func compileText(s siglang.Sig) *TextProg {
	rx := siglang.Regex(s)
	p := &TextProg{spec: len(rx)}
	if _, err := syntax.Parse(rx, syntax.Perl); err != nil {
		return p
	}
	p.valid = true
	p.lits = siglang.LiteralFragments(s)
	if strings.ContainsRune(rx, utf8.RuneError) {
		re, err := regexp.Compile(rx)
		p.re, p.valid = re, err == nil
		return p
	}
	var c textCompiler
	c.emit(s)
	c.insts = append(c.insts, inst{op: opMatch})
	p.insts = c.insts
	p.prefix, p.literal, p.isLit = textSummaries(c.insts)
	p.prefixLen = uint32(len(p.prefix))
	if !p.isLit {
		if lits, ok := literalAlts(s, 8); ok {
			p.altLits = lits
		}
	}
	p.anyNoNL = isDotStar(c.insts)
	return p
}

// literalAlts enumerates the exact strings a signature accepts when it is
// a finite alternation of literals (literals, booleans, and their concats
// and alternations); ok is false past max strings or on any open-ended
// construct, and the VM handles those shapes instead.
func literalAlts(s siglang.Sig, max int) ([]string, bool) {
	switch v := s.(type) {
	case *siglang.Lit:
		return []string{v.Val}, true
	case *siglang.Unknown:
		if v.Type == siglang.VBool {
			return []string{"true", "false"}, true
		}
	case *siglang.Concat:
		out := []string{""}
		for _, part := range v.Parts {
			alts, ok := literalAlts(part, max)
			if !ok {
				return nil, false
			}
			next := make([]string, 0, len(out)*len(alts))
			for _, pre := range out {
				for _, a := range alts {
					next = append(next, pre+a)
				}
			}
			if len(next) > max {
				return nil, false
			}
			out = next
		}
		return out, true
	case *siglang.Or:
		if len(v.Alts) == 0 {
			// "(?:)": the renderer and the emitter both treat the empty
			// alternation as epsilon.
			return []string{""}, true
		}
		var out []string
		for _, a := range v.Alts {
			alts, ok := literalAlts(a, max)
			if !ok {
				return nil, false
			}
			out = append(out, alts...)
			if len(out) > max {
				return nil, false
			}
		}
		return out, true
	}
	return nil, false
}

// isDotStar recognizes the exact ".*" program dotStar emits — the most
// common URI shape after literals — whose language is simply "no newline".
func isDotStar(insts []inst) bool {
	return len(insts) == 4 &&
		insts[0].op == opSplit && insts[0].x == 1 && insts[0].y == 3 &&
		insts[1].op == opNotNL &&
		insts[2].op == opJmp && insts[2].x == 0 &&
		insts[3].op == opMatch
}

// textSummaries extracts the anchored literal prefix and, when the program
// is nothing but literal bytes, the exact string it accepts.
func textSummaries(insts []inst) (prefix, literal string, isLit bool) {
	var b strings.Builder
	for i, in := range insts {
		switch in.op {
		case opByte:
			b.WriteByte(in.b)
		case opMatch:
			if i == len(insts)-1 {
				return b.String(), b.String(), true
			}
			return b.String(), "", false
		default:
			return b.String(), "", false
		}
	}
	return b.String(), "", false
}

type textCompiler struct {
	insts []inst
}

func (c *textCompiler) pc() uint32 { return uint32(len(c.insts)) }

func (c *textCompiler) add(in inst) uint32 {
	c.insts = append(c.insts, in)
	return uint32(len(c.insts) - 1)
}

// emit compiles one signature node; the generated fragment falls through
// to whatever is emitted next.
func (c *textCompiler) emit(s siglang.Sig) {
	switch v := s.(type) {
	case nil:
		c.dotStar()
	case *siglang.Lit:
		for i := 0; i < len(v.Val); i++ {
			c.add(inst{op: opByte, b: v.Val[i]})
		}
	case *siglang.Unknown:
		switch v.Type {
		case siglang.VInt:
			// [0-9]+ : one digit, then an optional loop.
			first := c.add(inst{op: opDigit})
			sp := c.add(inst{op: opSplit, x: first})
			c.insts[sp].y = c.pc()
		case siglang.VBool:
			// (?:true|false)
			sp := c.add(inst{op: opSplit})
			c.insts[sp].x = c.pc()
			for _, b := range []byte("true") {
				c.add(inst{op: opByte, b: b})
			}
			j := c.add(inst{op: opJmp})
			c.insts[sp].y = c.pc()
			for _, b := range []byte("false") {
				c.add(inst{op: opByte, b: b})
			}
			c.insts[j].x = c.pc()
		default:
			c.dotStar()
		}
	case *siglang.Concat:
		for _, p := range v.Parts {
			c.emit(p)
		}
	case *siglang.Rep:
		// (?:body)* : split over the body with a back-edge.
		sp := c.add(inst{op: opSplit})
		c.insts[sp].x = c.pc()
		c.emit(v.Body)
		c.add(inst{op: opJmp, x: sp})
		c.insts[sp].y = c.pc()
	case *siglang.Or:
		c.alts(v.Alts)
	default:
		// *JSON / *Obj / *Arr / *XML embedded in a text position render as
		// ".*" (structural matching handles them elsewhere).
		c.dotStar()
	}
}

// dotStar emits ".*": a split over a single not-newline consumer.
func (c *textCompiler) dotStar() {
	sp := c.add(inst{op: opSplit})
	c.insts[sp].x = c.pc()
	c.add(inst{op: opNotNL})
	c.add(inst{op: opJmp, x: sp})
	c.insts[sp].y = c.pc()
}

// alts emits an alternation; zero alternatives is "(?:)", the empty match.
func (c *textCompiler) alts(alts []siglang.Sig) {
	if len(alts) == 0 {
		return
	}
	var jumps []uint32
	for i, a := range alts {
		if i < len(alts)-1 {
			sp := c.add(inst{op: opSplit})
			c.insts[sp].x = c.pc()
			c.emit(a)
			jumps = append(jumps, c.add(inst{op: opJmp}))
			c.insts[sp].y = c.pc()
		} else {
			c.emit(a)
		}
	}
	out := c.pc()
	for _, j := range jumps {
		c.insts[j].x = out
	}
}

// matchText runs a program over the input using the matcher's scratch
// thread lists. It is the bool of the oracle's MatchText.
func (m *Matcher) matchText(p *TextProg, input string) bool {
	if !p.valid {
		return false
	}
	if p.re != nil {
		return p.re.MatchString(input)
	}
	if p.isLit {
		return input == p.literal
	}
	if p.altLits != nil {
		for _, l := range p.altLits {
			if input == l {
				return true
			}
		}
		return false
	}
	if p.anyNoNL {
		return strings.IndexByte(input, '\n') < 0
	}
	if !strings.HasPrefix(input, p.prefix) {
		return false
	}
	n := len(p.insts)
	m.ensure(n)
	cur, next := m.cur[:0], m.next[:0]
	m.bump()
	// The prefix bytes are verified; resume the VM past their opByte run.
	cur = m.addThread(p, cur, p.prefixLen)
	for i := int(p.prefixLen); i <= len(input); i++ {
		atEnd := i == len(input)
		var b byte
		if !atEnd {
			b = input[i]
		}
		next = next[:0]
		m.bump()
		for _, pc := range cur {
			in := p.insts[pc]
			switch in.op {
			case opMatch:
				if atEnd {
					m.cur, m.next = cur, next
					return true
				}
			case opByte:
				if !atEnd && b == in.b {
					next = m.addThread(p, next, pc+1)
				}
			case opDigit:
				if !atEnd && b >= '0' && b <= '9' {
					next = m.addThread(p, next, pc+1)
				}
			case opNotNL:
				if !atEnd && b != '\n' {
					next = m.addThread(p, next, pc+1)
				}
			}
		}
		cur, next = next, cur
		if len(cur) == 0 && !atEnd {
			break
		}
	}
	m.cur, m.next = cur, next
	return false
}

// addThread inserts pc and its epsilon closure (splits, jumps) into list,
// deduplicating against the current generation mark.
func (m *Matcher) addThread(p *TextProg, list []uint32, pc uint32) []uint32 {
	stack := m.stack[:0]
	stack = append(stack, pc)
	for len(stack) > 0 {
		pc = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.mark[pc] == m.gen {
			continue
		}
		m.mark[pc] = m.gen
		switch in := p.insts[pc]; in.op {
		case opSplit:
			stack = append(stack, in.y, in.x)
		case opJmp:
			stack = append(stack, in.x)
		default:
			list = append(list, pc)
		}
	}
	m.stack = stack[:0]
	return list
}

// matchTextStats is the oracle's MatchText on a compiled program: the verdict
// from the VM, the byte accounting from the shared AccountText over the
// precomputed fragments.
func (m *Matcher) matchTextStats(p *TextProg, input string) (bool, siglang.ByteStats) {
	if !m.matchText(p, input) {
		return false, siglang.ByteStats{}
	}
	return true, siglang.AccountText(p.lits, input)
}
