#include "os/vfs.h"

#include <algorithm>
#include <cstring>

namespace cheri
{

std::string_view
errnoName(int err)
{
    switch (err) {
      case E_OK: return "OK";
      case E_PERM: return "E_PERM";
      case E_NOENT: return "E_NOENT";
      case E_SRCH: return "E_SRCH";
      case E_INTR: return "E_INTR";
      case E_NOEXEC: return "E_NOEXEC";
      case E_BADF: return "E_BADF";
      case E_CHILD: return "E_CHILD";
      case E_DEADLK: return "E_DEADLK";
      case E_NOMEM: return "E_NOMEM";
      case E_ACCES: return "E_ACCES";
      case E_FAULT: return "E_FAULT";
      case E_BUSY: return "E_BUSY";
      case E_EXIST: return "E_EXIST";
      case E_NOTDIR: return "E_NOTDIR";
      case E_ISDIR: return "E_ISDIR";
      case E_INVAL: return "E_INVAL";
      case E_NOTTY: return "E_NOTTY";
      case E_NOSPC: return "E_NOSPC";
      case E_PIPE: return "E_PIPE";
      case E_RANGE: return "E_RANGE";
      case E_AGAIN: return "E_AGAIN";
      case E_NOSYS: return "E_NOSYS";
      case E_PROT: return "E_PROT";
    }
    return "E?";
}

namespace
{

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/') {
            if (!cur.empty())
                parts.push_back(std::move(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        parts.push_back(std::move(cur));
    return parts;
}

} // namespace

Vfs::Vfs() : root(std::make_shared<VNode>())
{
    root->kind = NodeKind::Directory;
    root->name.assign(1, '/');
}

VNodeRef
Vfs::walk(const std::string &path, bool create_dirs, std::string *leaf) const
{
    auto parts = splitPath(path);
    if (parts.empty()) {
        if (leaf)
            leaf->clear();
        return root;
    }
    VNodeRef cur = root;
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
        auto it = cur->children.find(parts[i]);
        if (it == cur->children.end()) {
            if (!create_dirs)
                return nullptr;
            auto dir = std::make_shared<VNode>();
            dir->kind = NodeKind::Directory;
            dir->name = parts[i];
            cur->children[parts[i]] = dir;
            cur = dir;
        } else {
            cur = it->second;
            if (cur->kind != NodeKind::Directory)
                return nullptr;
        }
    }
    if (leaf)
        *leaf = parts.back();
    return cur;
}

VNodeRef
Vfs::lookup(const std::string &path) const
{
    std::string leaf;
    VNodeRef dir = walk(path, false, &leaf);
    if (!dir)
        return nullptr;
    if (leaf.empty())
        return dir;
    auto it = dir->children.find(leaf);
    return it == dir->children.end() ? nullptr : it->second;
}

VNodeRef
Vfs::createFile(const std::string &path)
{
    std::string leaf;
    VNodeRef dir = walk(path, true, &leaf);
    if (!dir || leaf.empty())
        return nullptr;
    auto it = dir->children.find(leaf);
    if (it != dir->children.end()) {
        if (it->second->kind == NodeKind::Directory)
            return nullptr;
        return it->second;
    }
    auto node = std::make_shared<VNode>();
    node->kind = NodeKind::Regular;
    node->name = leaf;
    dir->children[leaf] = node;
    return node;
}

VNodeRef
Vfs::mkdir(const std::string &path)
{
    std::string leaf;
    VNodeRef dir = walk(path, true, &leaf);
    if (!dir)
        return nullptr;
    if (leaf.empty())
        return dir;
    auto it = dir->children.find(leaf);
    if (it != dir->children.end()) {
        return it->second->kind == NodeKind::Directory ? it->second
                                                       : nullptr;
    }
    auto node = std::make_shared<VNode>();
    node->kind = NodeKind::Directory;
    node->name = leaf;
    dir->children[leaf] = node;
    return node;
}

int
Vfs::unlink(const std::string &path)
{
    std::string leaf;
    VNodeRef dir = walk(path, false, &leaf);
    if (!dir || leaf.empty())
        return E_NOENT;
    auto it = dir->children.find(leaf);
    if (it == dir->children.end())
        return E_NOENT;
    if (it->second->kind == NodeKind::Directory)
        return E_ISDIR;
    dir->children.erase(it);
    return E_OK;
}

std::vector<std::string>
Vfs::readdir(const std::string &path) const
{
    std::vector<std::string> names;
    VNodeRef node = lookup(path);
    if (!node || node->kind != NodeKind::Directory)
        return names;
    for (const auto &[name, child] : node->children)
        names.push_back(name);
    return names;
}

namespace
{

/**
 * Wait-channel id allocator.  Ids are process-lifetime-unique tokens
 * (never 0, never reused) that blocked contexts park on; they carry no
 * cross-run meaning and never appear in guest-visible state, so the
 * file-local counter cannot perturb differential comparisons.
 */
u64 nextWaitId = 1;

std::shared_ptr<ByteChannel>
makeChannel()
{
    auto ch = std::make_shared<ByteChannel>();
    ch->readWait = nextWaitId++;
    ch->writeWait = nextWaitId++;
    return ch;
}

} // namespace

void
Vfs::reserveWaitIds(u64 floor)
{
    if (nextWaitId < floor)
        nextWaitId = floor;
}

std::pair<VNodeRef, VNodeRef>
Vfs::makePipe()
{
    auto ch = makeChannel();
    auto rd = std::make_shared<VNode>();
    rd->kind = NodeKind::Pipe;
    rd->name = "pipe:r";
    rd->readCh = ch;
    auto wr = std::make_shared<VNode>();
    wr->kind = NodeKind::Pipe;
    wr->name = "pipe:w";
    wr->writeCh = ch;
    return {rd, wr};
}

std::pair<VNodeRef, VNodeRef>
Vfs::makePty()
{
    // Two crossed channels: master writes feed slave reads and vice
    // versa.
    auto m2s = makeChannel();
    auto s2m = makeChannel();
    auto master = std::make_shared<VNode>();
    master->kind = NodeKind::PtyMaster;
    master->name = "pty:m";
    master->readCh = s2m;
    master->writeCh = m2s;
    auto slave = std::make_shared<VNode>();
    slave->kind = NodeKind::PtySlave;
    slave->name = "pty:s";
    slave->readCh = m2s;
    slave->writeCh = s2m;
    return {master, slave};
}

bool
Vfs::readReady(const VNodeRef &node, u64 offset)
{
    switch (node->kind) {
      case NodeKind::Regular:
        return offset < node->data.size();
      case NodeKind::Directory:
        return false;
      default:
        return node->readCh &&
               (!node->readCh->buf.empty() || node->readCh->writerClosed);
    }
}

bool
Vfs::writeReady(const VNodeRef &node)
{
    switch (node->kind) {
      case NodeKind::Regular:
        return true;
      case NodeKind::Directory:
        return false;
      default:
        // A broken pipe is "writable": the write completes immediately
        // (with EPIPE), which is what select readiness promises.
        return node->writeCh &&
               (node->writeCh->buf.size() < ByteChannel::capacity ||
                node->writeCh->readerClosed);
    }
}

s64
Vfs::read(OpenFile &of, void *buf, u64 len)
{
    if (!of.readable())
        return -E_BADF;
    VNode &node = *of.node;
    switch (node.kind) {
      case NodeKind::Regular: {
        if (of.offset >= node.data.size())
            return 0;
        u64 n = std::min<u64>(len, node.data.size() - of.offset);
        std::memcpy(buf, node.data.data() + of.offset, n);
        of.offset += n;
        return static_cast<s64>(n);
      }
      case NodeKind::Directory:
        return -E_ISDIR;
      default: {
        ByteChannel &ch = *node.readCh;
        if (ch.buf.empty())
            return ch.writerClosed ? 0 : -E_AGAIN; // would block
        u64 n = std::min<u64>(len, ch.buf.size());
        for (u64 i = 0; i < n; ++i) {
            static_cast<u8 *>(buf)[i] = ch.buf.front();
            ch.buf.pop_front();
        }
        return static_cast<s64>(n);
      }
    }
}

s64
Vfs::write(OpenFile &of, const void *buf, u64 len)
{
    if (!of.writable())
        return -E_BADF;
    VNode &node = *of.node;
    switch (node.kind) {
      case NodeKind::Regular: {
        u64 pos = (of.flags & O_APPEND) ? node.data.size() : of.offset;
        if (pos + len > node.data.size())
            node.data.resize(pos + len);
        std::memcpy(node.data.data() + pos, buf, len);
        of.offset = pos + len;
        return static_cast<s64>(len);
      }
      case NodeKind::Directory:
        return -E_ISDIR;
      default: {
        ByteChannel &ch = *node.writeCh;
        // EPIPE keys on the *reader* side being gone: writing into a
        // buffer nobody can ever drain is the broken-pipe condition.
        if (ch.readerClosed)
            return -E_PIPE;
        if (len == 0)
            return 0;
        u64 space = ByteChannel::capacity - ch.buf.size();
        u64 n = std::min<u64>(len, space);
        // Never report a zero-length "success" for a nonzero write:
        // a full channel is would-block (the caller parks or E_AGAINs).
        if (n == 0)
            return -E_AGAIN;
        const u8 *p = static_cast<const u8 *>(buf);
        ch.buf.insert(ch.buf.end(), p, p + n);
        return static_cast<s64>(n);
      }
    }
}

} // namespace cheri
