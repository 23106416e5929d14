//===- StorageUniquer.cpp - Structural uniquing of IR storages -------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/StorageUniquer.h"

#include "support/Telemetry.h"

#include <mutex>

using namespace tdl;

StorageUniquer::StorageUniquer(Context *Ctx) : Ctx(Ctx) {}

StorageUniquer::~StorageUniquer() {
  for (const auto &[Hash, E] : Storages)
    E.Class->Destroy(E.Storage);
}

const void *StorageUniquer::find(uint64_t Hash, const StorageClass &Class,
                                 const void *Key) const {
  auto [It, End] = Storages.equal_range(Hash);
  for (; It != End; ++It)
    if (It->second.Class == &Class && Class.Matches(It->second.Storage, Key))
      return It->second.Storage;
  return nullptr;
}

const void *StorageUniquer::getOrCreate(uint64_t Hash,
                                        const StorageClass &Class,
                                        const void *Key) {
  {
    std::shared_lock<std::shared_mutex> Read(Lock);
    if (const void *Found = find(Hash, Class, Key))
      return Found;
  }
  std::unique_lock<std::shared_mutex> Write(Lock);
  // Another thread may have created the storage between the two locks.
  if (const void *Found = find(Hash, Class, Key))
    return Found;
  const void *Storage = Class.Make(Ctx, Key, Hash);
  Storages.emplace(Hash, Entry{&Class, Storage});
  static telemetry::Counter &Creates = telemetry::counter("ir.uniquer.creates");
  Creates.add();
  return Storage;
}
