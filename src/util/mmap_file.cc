#include "util/mmap_file.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cameo
{

MmapFile::MmapFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error_ = "cannot open " + path + ": " + std::strerror(errno);
        return;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        error_ = "cannot stat " + path + ": " + std::strerror(errno);
        ::close(fd);
        return;
    }
    if (st.st_size == 0) {
        error_ = path + " is empty";
        ::close(fd);
        return;
    }
    const auto length = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping pins the file contents; the descriptor is not needed
    // past this point either way.
    ::close(fd);
    if (map == MAP_FAILED) {
        error_ = "cannot mmap " + path + ": " + std::strerror(errno);
        return;
    }
    data_ = static_cast<const std::uint8_t *>(map);
    size_ = length;
}

MmapFile::~MmapFile()
{
    if (data_ != nullptr)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
}

} // namespace cameo
