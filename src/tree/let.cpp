#include "tree/let.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace galactos::tree {

namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'L', 'E', 'T'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagF32Coords = 1u << 0;
constexpr std::uint8_t kFlagUnitWeights = 1u << 1;
constexpr std::uint8_t kKnownFlags = kFlagF32Coords | kFlagUnitWeights;

void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

// Appends raw bytes by resize + memcpy: GCC 12 mis-sizes the destination
// of a range insert into a reserved-but-empty vector and warns
// -Wstringop-overflow.
void put_bytes(std::vector<std::uint8_t>& buf, const void* src,
               std::size_t n) {
  const std::size_t at = buf.size();
  buf.resize(at + n);
  std::memcpy(buf.data() + at, src, n);
}

template <typename T>
void put_raw(std::vector<std::uint8_t>& buf, T v) {
  put_bytes(buf, &v, sizeof(T));
}

// Outward-rounded narrowing so a float AABB still contains every double
// coordinate it bounded.
float round_lo(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v)
    f = std::nextafterf(f, -std::numeric_limits<float>::infinity());
  return f;
}
float round_hi(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v)
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  return f;
}

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("let: malformed message: " + what);
}

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (p == end) malformed("truncated varint");
      const std::uint8_t b = *p++;
      if (shift >= 63 && (b & 0x7e)) malformed("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  template <typename T>
  T raw() {
    if (static_cast<std::size_t>(end - p) < sizeof(T))
      malformed("truncated payload");
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

// Componentwise gap between two closed boxes, squared (0 when they touch).
double box_box_gap2(const double lo1[3], const double hi1[3],
                    const sim::Aabb& b) {
  double d2 = 0.0;
  const double lo2[3] = {b.lo.x, b.lo.y, b.lo.z};
  const double hi2[3] = {b.hi.x, b.hi.y, b.hi.z};
  for (int d = 0; d < 3; ++d) {
    double gap = 0.0;
    if (lo1[d] > hi2[d])
      gap = lo1[d] - hi2[d];
    else if (lo2[d] > hi1[d])
      gap = lo2[d] - hi1[d];
    d2 += gap * gap;
  }
  return d2;
}

}  // namespace

template <typename Real>
LetMessage build_let_message(const KdTree<Real>& tree,
                             const sim::Aabb& peer_box, double rmax,
                             bool f32_coords, LetStats* stats) {
  LetMessage msg;
  msg.f32_coords = f32_coords;

  Real lo[3] = {static_cast<Real>(peer_box.lo.x),
                static_cast<Real>(peer_box.lo.y),
                static_cast<Real>(peer_box.lo.z)};
  Real hi[3] = {static_cast<Real>(peer_box.hi.x),
                static_cast<Real>(peer_box.hi.y),
                static_cast<Real>(peer_box.hi.z)};
  const std::vector<std::size_t> leaves = tree.leaves_in_reach(lo, hi, rmax);

  const double r2 = rmax * rmax;
  bool all_unit = true;
  for (std::size_t leaf : leaves) {
    LetCell cell;
    cell.id = static_cast<std::uint32_t>(leaf);
    Real llo[3], lhi[3];
    tree.leaf_box(leaf, llo, lhi);
    for (int d = 0; d < 3; ++d) {
      cell.lo[d] = static_cast<double>(llo[d]);
      cell.hi[d] = static_cast<double>(lhi[d]);
    }
    cell.begin = msg.x.size();
    // Per-point refinement: the exact §3.3 shell criterion, on the
    // tree's stored coordinate planes.
    const std::int32_t b = tree.leaf_begin(leaf), e = tree.leaf_end(leaf);
    for (std::int32_t i = b; i < e; ++i) {
      const sim::Vec3 p{static_cast<double>(tree.x(i)),
                        static_cast<double>(tree.y(i)),
                        static_cast<double>(tree.z(i))};
      if (peer_box.dist2(p) > r2) continue;
      msg.x.push_back(p.x);
      msg.y.push_back(p.y);
      msg.z.push_back(p.z);
      const double w = tree.weight(i);
      msg.w.push_back(w);
      if (w != 1.0) all_unit = false;
    }
    cell.count = msg.x.size() - cell.begin;
    if (cell.count > 0) msg.cells.push_back(cell);
  }

  if (all_unit && !msg.w.empty()) {
    msg.unit_weights = true;
    msg.w.clear();
  }
  if (stats) {
    stats->cells_sent = msg.cells.size();
    stats->cells_pruned = tree.leaf_count() - msg.cells.size();
    stats->points_shipped = msg.point_count();
  }
  return msg;
}

template LetMessage build_let_message<float>(const KdTree<float>&,
                                             const sim::Aabb&, double, bool,
                                             LetStats*);
template LetMessage build_let_message<double>(const KdTree<double>&,
                                              const sim::Aabb&, double, bool,
                                              LetStats*);

std::vector<std::uint8_t> serialize_let(const LetMessage& msg) {
  std::vector<std::uint8_t> buf;
  const std::size_t coord_bytes = msg.f32_coords ? 4 : 8;
  buf.reserve(18 + msg.cells.size() * (6 * coord_bytes + 6) +
              msg.point_count() * (3 * coord_bytes +
                                   (msg.unit_weights ? 0 : 8)));

  put_bytes(buf, kMagic, sizeof(kMagic));
  buf.push_back(kVersion);
  std::uint8_t flags = 0;
  if (msg.f32_coords) flags |= kFlagF32Coords;
  if (msg.unit_weights) flags |= kFlagUnitWeights;
  buf.push_back(flags);
  put_raw<std::uint32_t>(buf, static_cast<std::uint32_t>(msg.cells.size()));
  put_raw<std::uint64_t>(buf, msg.point_count());

  std::uint64_t prev = 0;
  bool first = true;
  for (const LetCell& c : msg.cells) {
    // Ids are strictly ascending leaf ordinals; encode the gap (>= 1
    // after the first) so small trees cost one byte per cell.
    const std::uint64_t delta = first ? c.id + 1 : c.id - prev;
    GLX_DCHECK(first || c.id > prev);
    put_varint(buf, delta);
    put_varint(buf, c.count);
    if (msg.f32_coords) {
      for (int d = 0; d < 3; ++d) put_raw<float>(buf, round_lo(c.lo[d]));
      for (int d = 0; d < 3; ++d) put_raw<float>(buf, round_hi(c.hi[d]));
    } else {
      for (int d = 0; d < 3; ++d) put_raw<double>(buf, c.lo[d]);
      for (int d = 0; d < 3; ++d) put_raw<double>(buf, c.hi[d]);
    }
    prev = c.id;
    first = false;
  }

  const std::size_t n = msg.point_count();
  auto put_plane = [&](const std::vector<double>& plane) {
    if (msg.f32_coords) {
      for (std::size_t i = 0; i < n; ++i)
        put_raw<float>(buf, static_cast<float>(plane[i]));
    } else {
      for (std::size_t i = 0; i < n; ++i) put_raw<double>(buf, plane[i]);
    }
  };
  put_plane(msg.x);
  put_plane(msg.y);
  put_plane(msg.z);
  if (!msg.unit_weights)
    for (std::size_t i = 0; i < n; ++i) put_raw<double>(buf, msg.w[i]);
  return buf;
}

LetMessage deserialize_let(const std::uint8_t* data, std::size_t size) {
  Reader r{data, data + size};
  if (size < 18 || std::memcmp(data, kMagic, 4) != 0) malformed("bad magic");
  r.p += 4;
  const std::uint8_t version = *r.p++;
  if (version != kVersion)
    malformed("unknown version " + std::to_string(version));
  const std::uint8_t flags = *r.p++;
  if (flags & ~kKnownFlags)
    malformed("unknown flags 0x" + std::to_string(flags));

  LetMessage msg;
  msg.f32_coords = (flags & kFlagF32Coords) != 0;
  msg.unit_weights = (flags & kFlagUnitWeights) != 0;
  const std::uint32_t n_cells = r.raw<std::uint32_t>();
  const std::uint64_t n_points = r.raw<std::uint64_t>();

  msg.cells.reserve(n_cells);
  std::uint64_t prev = 0;
  std::uint64_t total = 0;
  bool first = true;
  for (std::uint32_t c = 0; c < n_cells; ++c) {
    const std::uint64_t delta = r.varint();
    if (delta == 0) malformed("non-ascending cell id");
    const std::uint64_t id = first ? delta - 1 : prev + delta;
    if (id > 0xffffffffull) malformed("cell id overflow");
    LetCell cell;
    cell.id = static_cast<std::uint32_t>(id);
    cell.count = r.varint();
    if (cell.count == 0) malformed("empty cell");
    cell.begin = total;
    total += cell.count;
    if (total > n_points) malformed("cell counts exceed point count");
    if (msg.f32_coords) {
      for (int d = 0; d < 3; ++d)
        cell.lo[d] = static_cast<double>(r.raw<float>());
      for (int d = 0; d < 3; ++d)
        cell.hi[d] = static_cast<double>(r.raw<float>());
    } else {
      for (int d = 0; d < 3; ++d) cell.lo[d] = r.raw<double>();
      for (int d = 0; d < 3; ++d) cell.hi[d] = r.raw<double>();
    }
    prev = id;
    first = false;
    msg.cells.push_back(cell);
  }
  if (total != n_points) malformed("cell counts != point count");

  auto read_plane = [&](std::vector<double>& plane) {
    plane.reserve(n_points);
    if (msg.f32_coords) {
      for (std::uint64_t i = 0; i < n_points; ++i)
        plane.push_back(static_cast<double>(r.raw<float>()));
    } else {
      for (std::uint64_t i = 0; i < n_points; ++i)
        plane.push_back(r.raw<double>());
    }
  };
  read_plane(msg.x);
  read_plane(msg.y);
  read_plane(msg.z);
  if (!msg.unit_weights) {
    msg.w.reserve(n_points);
    for (std::uint64_t i = 0; i < n_points; ++i)
      msg.w.push_back(r.raw<double>());
  }
  if (r.p != r.end) malformed("trailing bytes");
  return msg;
}

std::size_t append_let_to_catalog(const LetMessage& msg,
                                  const sim::Aabb& target, double rmax,
                                  sim::Catalog& out,
                                  std::uint64_t* cells_skipped) {
  const double r2 = rmax * rmax;
  std::size_t appended = 0;
  std::uint64_t skipped = 0;
  for (const LetCell& c : msg.cells) {
    if (box_box_gap2(c.lo, c.hi, target) > r2) {
      ++skipped;
      continue;
    }
    const std::size_t b = static_cast<std::size_t>(c.begin);
    const std::size_t e = b + static_cast<std::size_t>(c.count);
    for (std::size_t i = b; i < e; ++i)
      out.push_back(msg.x[i], msg.y[i], msg.z[i],
                    msg.unit_weights ? 1.0 : msg.w[i]);
    appended += static_cast<std::size_t>(c.count);
  }
  if (cells_skipped) *cells_skipped = skipped;
  return appended;
}

}  // namespace galactos::tree
