package source

// Unwatched makes st keep no records, as a store does where no watch can
// be armed: each of its loads lists the directory and reads every file.
// It must be called before st's first load.
func Unwatched(st *Store) { st.once.Do(func() { st.start(nil) }) }
