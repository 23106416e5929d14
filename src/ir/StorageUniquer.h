//===- StorageUniquer.h - Structural uniquing of IR storages ----*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One hashed table for every immutable storage the Context owns: types,
/// attributes, affine expressions and affine maps. A storage class describes
/// its parameters with a `KeyTy` (the kind tag plus parameters; nested
/// storages by their uniqued pointer) and provides
///
///   static uint64_t hashKey(const KeyTy &);       // the storage's Hash
///   bool operator==(const KeyTy &) const;         // parameter equality
///   StorageT(Context *, const KeyTy &, uint64_t Hash);
///
/// The hash is the stable structural hash the storage keeps, computed from
/// the parameters before the lookup, so a lookup never prints anything.
/// Lookups take a shared lock; a miss re-checks and inserts under the
/// exclusive lock, so concurrent readers do not serialize.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_IR_STORAGEUNIQUER_H
#define TDL_IR_STORAGEUNIQUER_H

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

namespace tdl {

class Context;

/// What the type-erased table needs to know about one storage class. Its
/// address doubles as the class tag, so a candidate is only compared with a
/// key of its own class.
struct StorageClass {
  bool (*Matches)(const void *Storage, const void *Key);
  const void *(*Make)(Context *Ctx, const void *Key, uint64_t Hash);
  void (*Destroy)(const void *Storage);
};

template <typename StorageT>
inline const StorageClass StorageClassOf = {
    [](const void *Storage, const void *Key) {
      return *static_cast<const StorageT *>(Storage) ==
             *static_cast<const typename StorageT::KeyTy *>(Key);
    },
    [](Context *Ctx, const void *Key, uint64_t Hash) -> const void * {
      return new StorageT(
          Ctx, *static_cast<const typename StorageT::KeyTy *>(Key), Hash);
    },
    [](const void *Storage) { delete static_cast<const StorageT *>(Storage); },
};

class StorageUniquer {
public:
  explicit StorageUniquer(Context *Ctx);
  ~StorageUniquer();
  StorageUniquer(const StorageUniquer &) = delete;
  StorageUniquer &operator=(const StorageUniquer &) = delete;

  /// Returns the one storage equal to \p Key, creating it on first request.
  template <typename StorageT>
  const StorageT *get(const typename StorageT::KeyTy &Key) {
    return static_cast<const StorageT *>(getOrCreate(
        StorageT::hashKey(Key), StorageClassOf<StorageT>, &Key));
  }

private:
  struct Entry {
    const StorageClass *Class;
    const void *Storage;
  };

  const void *find(uint64_t Hash, const StorageClass &Class,
                   const void *Key) const;
  const void *getOrCreate(uint64_t Hash, const StorageClass &Class,
                          const void *Key);

  Context *Ctx;
  std::shared_mutex Lock;
  /// Keyed by the storage Hash; equal hashes are told apart by Matches.
  std::unordered_multimap<uint64_t, Entry> Storages;
};

} // namespace tdl

#endif // TDL_IR_STORAGEUNIQUER_H
