#include "router/ods.hpp"

// Header-only behaviour; this translation unit anchors the library symbol.
