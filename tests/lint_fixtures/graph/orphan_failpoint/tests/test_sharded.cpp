// Not the crash sweep: a literal here must not cover the orphan site.
inline const char* kNotSwept[] = {"fixture.orphan.site"};
