package llm

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// containsAny reports whether the already-lowercased l contains any of
// words: the per-list check the vocabulary automaton replaces.
func containsAny(l string, words []string) bool {
	for _, w := range words {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// referenceMatch is vocab.match as containsAny computes it, one list at
// a time over strings.ToLower of s.
func referenceMatch(s string, want uint16) uint16 {
	l := strings.ToLower(s)
	var got uint16
	for i, words := range vocabLists {
		if bit := uint16(1) << i; want&bit != 0 && containsAny(l, words) {
			got |= bit
		}
	}
	return got
}

func TestVocabulariesMatchContainsAny(t *testing.T) {
	texts := []string{
		"", "r", "retr", "retry", "RETRY", "Retries", "maxRetries", "reTRYing",
		"// back off, then re-send", "backoff", "BACK OFF", "re-Execute",
		"resubmitting", "reresubmit", "rerequeue", "attempts", "numTries",
		"pollInterval", "WaitForLeader", "compareAndSwap", "CompareAndSet",
		"sleepFor", "SLEEP", "currentState", "taskQueue", "retryPolicy",
		"count", "Counter", "spinlock", "probe", "p r o b e", "retr\ny",
		// Unicode lowercasing can yield ASCII: U+212A KELVIN SIGN becomes
		// k, U+0130 (I with a dot above) becomes i.
		"BAC\u212aOFF", "bac\u212aoff", "RETR\u0130ES", "retr\u0130es", "atte\u212apt",
		"\u0130", "\u212a", "st\u00e1te", "\u017fleep", "queue\u00e9", "\xffretry", "retr\xffy",
		"\u65e5\u672cretry", "POL\u0130CY", "pol\u0130cy",
	}
	// Random texts splice words, their upper-case forms and runes whose
	// lowercase is ASCII or whose bytes are not.
	rng := rand.New(rand.NewPCG(1, 2))
	var pieces []string
	for _, words := range vocabLists {
		for _, w := range words {
			pieces = append(pieces, w, strings.ToUpper(w), w[:len(w)/2], w[len(w)/2:])
		}
	}
	pieces = append(pieces, "\u212a", "\u0130", "\u00e9", "\xff", " ", "-", "x", "K", "I")
	for range 2000 {
		var b strings.Builder
		for range 1 + rng.IntN(5) {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		texts = append(texts, b.String())
	}
	all := uint16(1)<<len(vocabLists) - 1
	for _, s := range texts {
		for _, want := range []uint16{all, 1, listPoll | listWeakIdent, listSleep | listRequeue | listCAS, uint16(rng.IntN(int(all) + 1))} {
			if got, ref := vocab().match(s, want), referenceMatch(s, want); got != ref {
				t.Errorf("match(%q, %#x) = %#x, containsAny gives %#x", s, want, got, ref)
			}
		}
	}
}
