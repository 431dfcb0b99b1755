#include "util/binio.h"

#include <fstream>

namespace manetcap::util::binio {

std::vector<std::uint8_t> read_file(const std::string& path,
                                    const char* label) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MANETCAP_CHECK_MSG(in.good(),
                     label << ": cannot open for read: " << path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  MANETCAP_CHECK_MSG(in.good(), label << ": read failed: " << path);
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes, const char* label) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MANETCAP_CHECK_MSG(out.good(),
                     label << ": cannot open for write: " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  MANETCAP_CHECK_MSG(out.good(), label << ": write failed: " << path);
}

}  // namespace manetcap::util::binio
