package source

import "time"

// PassWindow makes st judge trust by a clock running statWindow (and a
// margin) ahead of the real one, as if every file it reads had been
// written that long before. A test that uses it must let the file
// system's clock tick after its last write before each load, as the
// real window would: otherwise a write in the same tick as a trusted
// read may repeat the read's ctime.
func PassWindow(st *Store) {
	st.now = func() time.Time { return time.Now().Add(statWindow + 10*time.Millisecond) }
}
