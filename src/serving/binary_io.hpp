// Raw fixed-width field I/O shared by the serving binary formats (the
// quantile sketch encoding and the fleet checkpoint). Fields are copied in
// host byte order, little-endian on every supported target. Every read is
// exact-size, so a torn or truncated stream fails a get_raw and the caller
// rejects the whole file.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

namespace fcad::serving {

inline void put_u32(std::ostream& os, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  os.write(buf, sizeof v);
}

inline void put_u64(std::ostream& os, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  os.write(buf, sizeof v);
}

inline void put_i64(std::ostream& os, std::int64_t v) {
  put_u64(os, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::ostream& os, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(os, bits);
}

template <typename T>
bool get_raw(std::istream& in, T& v) {
  char buf[sizeof v];
  in.read(buf, sizeof v);
  if (in.gcount() != sizeof v) return false;
  std::memcpy(&v, buf, sizeof v);
  return true;
}

}  // namespace fcad::serving
