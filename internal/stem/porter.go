// Package stem implements the Porter stemming algorithm (M.F. Porter, "An
// algorithm for suffix stripping", Program 14(3), 1980). The paper's corpus
// pipeline stems every tweet token with nltk's Porter stemmer before building
// the word-association graph; this package is the equivalent substrate.
//
// The implementation follows the original 1980 definition (the variant
// implemented by the classic C and Java reference code), operating on
// lowercase ASCII words. Words shorter than three letters are returned
// unchanged, as in the reference implementation.
package stem

// Porter returns the Porter stem of word. The input is expected to be a
// lowercase ASCII word; bytes outside 'a'..'z' are left untouched and treated
// as consonants.
func Porter(word string) string {
	if len(word) <= 2 {
		return word
	}
	s := newStemmer(word)
	s.step1a()
	s.step1b()
	// Step 1 can cut the word to a single letter ("ies" -> "i"); the later
	// steps read b[k-1], so, as in the reference implementation, they only
	// run on a word that still has two letters.
	if s.k > 0 {
		s.step1c()
		s.step2()
		s.step3()
		s.step4()
		s.step5a()
		s.step5b()
	}
	return string(s.b[:s.k+1])
}

// stemmer holds the working buffer. b[0..k] is the current word.
type stemmer struct {
	b []byte
	k int // index of last letter of current word
	j int // index set by ends(): last letter of the stem before the suffix
}

func newStemmer(word string) *stemmer {
	b := []byte(word)
	return &stemmer{b: b, k: len(b) - 1}
}

// cons reports whether b[i] is a consonant.
func (s *stemmer) cons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.cons(i - 1)
	default:
		return true
	}
}

// m measures the number of consonant-vowel sequences in b[0..j]:
// <C>(VC)^m<V>. This is Porter's m.
func (s *stemmer) m() int {
	n := 0
	i := 0
	for {
		if i > s.j {
			return n
		}
		if !s.cons(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > s.j {
				return n
			}
			if s.cons(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > s.j {
				return n
			}
			if !s.cons(i) {
				break
			}
			i++
		}
		i++
	}
}

// vowelInStem reports whether b[0..j] contains a vowel.
func (s *stemmer) vowelInStem() bool {
	for i := 0; i <= s.j; i++ {
		if !s.cons(i) {
			return true
		}
	}
	return false
}

// doubleC reports whether b[i-1..i] is a double consonant.
func (s *stemmer) doubleC(i int) bool {
	if i < 1 {
		return false
	}
	if s.b[i] != s.b[i-1] {
		return false
	}
	return s.cons(i)
}

// cvc reports whether b[i-2..i] is consonant-vowel-consonant and the final
// consonant is not w, x or y. Used to restore a trailing e (e.g. cav(e),
// lov(e), hop(e)) and in step1b.
func (s *stemmer) cvc(i int) bool {
	if i < 2 || !s.cons(i) || s.cons(i-1) || !s.cons(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether b[0..k] ends with suffix, and if so sets j to point
// just before the suffix.
func (s *stemmer) ends(suffix string) bool {
	l := len(suffix)
	if l > s.k+1 {
		return false
	}
	if string(s.b[s.k+1-l:s.k+1]) != suffix {
		return false
	}
	s.j = s.k - l
	return true
}

// setTo replaces b[j+1..k] with repl and adjusts k.
func (s *stemmer) setTo(repl string) {
	s.b = append(s.b[:s.j+1], repl...)
	s.k = s.j + len(repl)
}

// r replaces the suffix with repl if m() > 0.
func (s *stemmer) r(repl string) {
	if s.m() > 0 {
		s.setTo(repl)
	}
}

// step1a removes plurals: sses -> ss, ies -> i, ss -> ss, s -> "".
func (s *stemmer) step1a() {
	if s.b[s.k] != 's' {
		return
	}
	switch {
	case s.ends("sses"):
		s.k -= 2
	case s.ends("ies"):
		s.setTo("i")
	case s.b[s.k-1] != 's':
		s.k--
	}
}

// step1b removes -ed and -ing, with cleanup of the exposed stem.
func (s *stemmer) step1b() {
	switch {
	case s.ends("eed"):
		if s.m() > 0 {
			s.k--
		}
		return
	case s.ends("ed"):
		if !s.vowelInStem() {
			return
		}
		s.k = s.j
	case s.ends("ing"):
		if !s.vowelInStem() {
			return
		}
		s.k = s.j
	default:
		return
	}
	// Cleanup after removing -ed/-ing.
	switch {
	case s.ends("at"):
		s.setTo("ate")
	case s.ends("bl"):
		s.setTo("ble")
	case s.ends("iz"):
		s.setTo("ize")
	case s.doubleC(s.k):
		s.k--
		switch s.b[s.k] {
		case 'l', 's', 'z':
			s.k++
		}
	default:
		if s.m() == 1 && s.cvc(s.k) {
			s.j = s.k
			s.setTo("e")
		}
	}
}

// step1c turns terminal y to i when there is another vowel in the stem.
func (s *stemmer) step1c() {
	if s.ends("y") && s.vowelInStem() {
		s.b[s.k] = 'i'
	}
}

// step2 maps double suffixes to single ones when m() > 0.
func (s *stemmer) step2() {
	switch s.b[s.k-1] {
	case 'a':
		switch {
		case s.ends("ational"):
			s.r("ate")
		case s.ends("tional"):
			s.r("tion")
		}
	case 'c':
		switch {
		case s.ends("enci"):
			s.r("ence")
		case s.ends("anci"):
			s.r("ance")
		}
	case 'e':
		if s.ends("izer") {
			s.r("ize")
		}
	case 'l':
		switch {
		case s.ends("bli"):
			s.r("ble")
		case s.ends("alli"):
			s.r("al")
		case s.ends("entli"):
			s.r("ent")
		case s.ends("eli"):
			s.r("e")
		case s.ends("ousli"):
			s.r("ous")
		}
	case 'o':
		switch {
		case s.ends("ization"):
			s.r("ize")
		case s.ends("ation"):
			s.r("ate")
		case s.ends("ator"):
			s.r("ate")
		}
	case 's':
		switch {
		case s.ends("alism"):
			s.r("al")
		case s.ends("iveness"):
			s.r("ive")
		case s.ends("fulness"):
			s.r("ful")
		case s.ends("ousness"):
			s.r("ous")
		}
	case 't':
		switch {
		case s.ends("aliti"):
			s.r("al")
		case s.ends("iviti"):
			s.r("ive")
		case s.ends("biliti"):
			s.r("ble")
		}
	case 'g':
		if s.ends("logi") {
			s.r("log")
		}
	}
}

// step3 handles -ic-, -full, -ness and similar when m() > 0.
func (s *stemmer) step3() {
	switch s.b[s.k] {
	case 'e':
		switch {
		case s.ends("icate"):
			s.r("ic")
		case s.ends("ative"):
			s.r("")
		case s.ends("alize"):
			s.r("al")
		}
	case 'i':
		if s.ends("iciti") {
			s.r("ic")
		}
	case 'l':
		switch {
		case s.ends("ical"):
			s.r("ic")
		case s.ends("ful"):
			s.r("")
		}
	case 's':
		if s.ends("ness") {
			s.r("")
		}
	}
}

// step4 strips -ant, -ence and similar when m() > 1.
func (s *stemmer) step4() {
	switch s.b[s.k-1] {
	case 'a':
		if !s.ends("al") {
			return
		}
	case 'c':
		if !s.ends("ance") && !s.ends("ence") {
			return
		}
	case 'e':
		if !s.ends("er") {
			return
		}
	case 'i':
		if !s.ends("ic") {
			return
		}
	case 'l':
		if !s.ends("able") && !s.ends("ible") {
			return
		}
	case 'n':
		if !s.ends("ant") && !s.ends("ement") && !s.ends("ment") && !s.ends("ent") {
			return
		}
	case 'o':
		if s.ends("ion") {
			if s.j < 0 || (s.b[s.j] != 's' && s.b[s.j] != 't') {
				return
			}
		} else if !s.ends("ou") {
			return
		}
	case 's':
		if !s.ends("ism") {
			return
		}
	case 't':
		if !s.ends("ate") && !s.ends("iti") {
			return
		}
	case 'u':
		if !s.ends("ous") {
			return
		}
	case 'v':
		if !s.ends("ive") {
			return
		}
	case 'z':
		if !s.ends("ize") {
			return
		}
	default:
		return
	}
	if s.m() > 1 {
		s.k = s.j
	}
}

// step5a removes a final -e when m() > 1, or when m() == 1 and the stem does
// not end cvc.
func (s *stemmer) step5a() {
	s.j = s.k
	if s.b[s.k] != 'e' {
		return
	}
	a := s.m()
	if a > 1 || (a == 1 && !s.cvc(s.k-1)) {
		s.k--
	}
}

// step5b changes -ll to -l when m() > 1.
func (s *stemmer) step5b() {
	if s.b[s.k] == 'l' && s.doubleC(s.k) && s.m() > 1 {
		s.k--
	}
}
